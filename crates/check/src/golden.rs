//! Golden full-flow regression records.
//!
//! A golden record pins the outcome of one seeded GP -> LG -> DP run:
//! design name, seed, thread count, iteration count, the three HPWL
//! checkpoints, and the final overflow. Records live under
//! `results/golden/*.json` and are compared with [`GoldenRecord::compare`]
//! (HPWL relative, overflow absolute). Regenerate by running the suite
//! with `DP_UPDATE_GOLDEN=1`.
//!
//! A record is one flat JSON object, stable key order, `{:.17e}` floats so
//! values round-trip exactly. The name is escaped by the shared codec
//! (`dp_telemetry::json`); reading goes through this crate's own
//! tokenizer ([`crate::trace`]), like every other file dp-check validates.

use std::fmt;
use std::path::Path;

use dp_num::Float;
use dp_telemetry::json;
use dreamplace_core::FlowResult;

use crate::trace::parse_flat_object;

/// One pinned full-flow outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenRecord {
    /// Design / scenario name.
    pub name: String,
    /// Generator seed.
    pub seed: u64,
    /// Worker threads the run was pinned to.
    pub threads: usize,
    /// GP iterations executed.
    pub iterations: usize,
    /// HPWL after global placement.
    pub hpwl_gp: f64,
    /// HPWL after legalization.
    pub hpwl_legal: f64,
    /// HPWL after detailed placement.
    pub hpwl_final: f64,
    /// Final GP density overflow.
    pub overflow: f64,
}

/// Comparison tolerances; the defaults are the acceptance thresholds of
/// the differential suite (HPWL within 0.1%, overflow within `1e-6`).
#[derive(Debug, Clone, Copy)]
pub struct GoldenTolerance {
    /// Relative bound on each HPWL checkpoint.
    pub hpwl_rel: f64,
    /// Absolute bound on the final overflow.
    pub overflow_abs: f64,
}

impl Default for GoldenTolerance {
    fn default() -> Self {
        Self {
            hpwl_rel: 1e-3,
            overflow_abs: 1e-6,
        }
    }
}

/// Failure to read or parse a golden record.
#[derive(Debug)]
pub enum GoldenError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Malformed record content.
    Parse(String),
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::Io(e) => write!(f, "golden record io error: {e}"),
            GoldenError::Parse(msg) => write!(f, "golden record parse error: {msg}"),
        }
    }
}

impl std::error::Error for GoldenError {}

impl From<std::io::Error> for GoldenError {
    fn from(e: std::io::Error) -> Self {
        GoldenError::Io(e)
    }
}

impl GoldenRecord {
    /// Captures a record from a finished flow run.
    pub fn from_flow<T: Float>(
        name: impl Into<String>,
        seed: u64,
        threads: usize,
        result: &FlowResult<T>,
    ) -> Self {
        Self {
            name: name.into(),
            seed,
            threads,
            iterations: result.gp.iterations,
            hpwl_gp: result.hpwl_gp,
            hpwl_legal: result.hpwl_legal,
            hpwl_final: result.hpwl_final,
            overflow: result.gp.final_overflow,
        }
    }

    /// Serializes to a single-object JSON document (stable key order).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"name\": {},\n",
                "  \"seed\": {},\n",
                "  \"threads\": {},\n",
                "  \"iterations\": {},\n",
                "  \"hpwl_gp\": {:.17e},\n",
                "  \"hpwl_legal\": {:.17e},\n",
                "  \"hpwl_final\": {:.17e},\n",
                "  \"overflow\": {:.17e}\n",
                "}}\n",
            ),
            json::quote(&self.name),
            self.seed,
            self.threads,
            self.iterations,
            self.hpwl_gp,
            self.hpwl_legal,
            self.hpwl_final,
            self.overflow,
        )
    }

    /// Parses a record written by [`GoldenRecord::to_json`] (tolerant of
    /// whitespace and key order).
    ///
    /// # Errors
    ///
    /// Returns [`GoldenError::Parse`] on any malformed, missing or unknown
    /// field.
    pub fn from_json(text: &str) -> Result<Self, GoldenError> {
        const KEYS: [&str; 8] = [
            "name", "seed", "threads", "iterations", "hpwl_gp", "hpwl_legal", "hpwl_final",
            "overflow",
        ];
        let fields = parse_flat_object(text).map_err(GoldenError::Parse)?;
        if let Some((key, _)) = fields.iter().find(|(k, _)| !KEYS.contains(&k.as_str())) {
            return Err(GoldenError::Parse(format!("unknown key `{key}`")));
        }
        let need = |key: &str| {
            let field = fields.iter().find(|(k, _)| k == key);
            field.map(|(_, v)| v).ok_or_else(|| GoldenError::Parse(format!("missing key `{key}`")))
        };
        let bad = |key: &str| GoldenError::Parse(format!("bad value for `{key}`"));
        let int = |key: &str| need(key)?.as_u64().ok_or_else(|| bad(key));
        let count = |key: &str| usize::try_from(int(key)?).map_err(|_| bad(key));
        let float = |key: &str| need(key)?.as_f64().ok_or_else(|| bad(key));
        Ok(Self {
            name: need("name")?.as_str().ok_or_else(|| bad("name"))?.to_string(),
            seed: int("seed")?,
            threads: count("threads")?,
            iterations: count("iterations")?,
            hpwl_gp: float("hpwl_gp")?,
            hpwl_legal: float("hpwl_legal")?,
            hpwl_final: float("hpwl_final")?,
            overflow: float("overflow")?,
        })
    }

    /// Loads a record from disk.
    ///
    /// # Errors
    ///
    /// [`GoldenError::Io`] if unreadable, [`GoldenError::Parse`] if
    /// malformed.
    pub fn load(path: &Path) -> Result<Self, GoldenError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// Writes the record to disk, creating parent directories.
    ///
    /// # Errors
    ///
    /// [`GoldenError::Io`] on any filesystem failure.
    pub fn store(&self, path: &Path) -> Result<(), GoldenError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())?;
        Ok(())
    }

    /// Compares `actual` against this (expected) record. Identity fields
    /// (`name`, `seed`, `threads`) and the iteration count must match
    /// exactly; HPWLs within `tol.hpwl_rel` relative, overflow within
    /// `tol.overflow_abs` absolute.
    ///
    /// # Errors
    ///
    /// Returns every violated field as a human-readable list.
    pub fn compare(&self, actual: &Self, tol: &GoldenTolerance) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        if self.name != actual.name {
            errs.push(format!("name `{}` != `{}`", self.name, actual.name));
        }
        if self.seed != actual.seed {
            errs.push(format!("seed {} != {}", self.seed, actual.seed));
        }
        if self.threads != actual.threads {
            errs.push(format!("threads {} != {}", self.threads, actual.threads));
        }
        if self.iterations != actual.iterations {
            errs.push(format!(
                "iterations {} != {}",
                self.iterations, actual.iterations
            ));
        }
        let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(b.abs()).max(1e-30);
        for (label, e, a) in [
            ("hpwl_gp", self.hpwl_gp, actual.hpwl_gp),
            ("hpwl_legal", self.hpwl_legal, actual.hpwl_legal),
            ("hpwl_final", self.hpwl_final, actual.hpwl_final),
        ] {
            if rel(e, a) > tol.hpwl_rel {
                errs.push(format!(
                    "{label} {a:.6e} deviates {:.3e} (rel) from golden {e:.6e}, tol {:.1e}",
                    rel(e, a),
                    tol.hpwl_rel
                ));
            }
        }
        if (self.overflow - actual.overflow).abs() > tol.overflow_abs {
            errs.push(format!(
                "overflow {:.6e} deviates {:.3e} (abs) from golden {:.6e}, tol {:.1e}",
                actual.overflow,
                (self.overflow - actual.overflow).abs(),
                self.overflow,
                tol.overflow_abs
            ));
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

/// `true` when the environment asks for golden files to be rewritten
/// (`DP_UPDATE_GOLDEN=1`).
pub fn update_requested() -> bool {
    std::env::var("DP_UPDATE_GOLDEN").map(|v| v == "1").unwrap_or(false)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn record() -> GoldenRecord {
        GoldenRecord {
            name: "golden-small".to_string(),
            seed: 7,
            threads: 2,
            iterations: 123,
            hpwl_gp: 1.234567890123456e5,
            hpwl_legal: 1.3e5,
            hpwl_final: 1.25e5,
            overflow: 0.0654321,
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = record();
        let back = GoldenRecord::from_json(&r.to_json()).expect("parse");
        assert_eq!(r, back);
    }

    #[test]
    fn hostile_names_and_large_seeds_round_trip() {
        // The textual splitter this replaced cut the record at the name's
        // comma, and every number went through f64 (2^53 + 1 lost its bit).
        let r = GoldenRecord {
            name: "a,b: \"c\"\\".to_string(),
            seed: 9_007_199_254_740_993,
            ..record()
        };
        assert_eq!(GoldenRecord::from_json(&r.to_json()).expect("parse"), r);
        let control = GoldenRecord {
            name: "tab\there\u{1}".to_string(),
            ..record()
        };
        assert_eq!(GoldenRecord::from_json(&control.to_json()).expect("parse"), control);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(GoldenRecord::from_json("not json").is_err());
        assert!(GoldenRecord::from_json("{\"name\": \"x\"}").is_err());
        assert!(GoldenRecord::from_json("{\"name\": \"x\", \"seed\": true}").is_err());
        let json = record().to_json();
        assert!(GoldenRecord::from_json(&json.replace("\"seed\": 7", "\"seed\": 7.5")).is_err());
        assert!(GoldenRecord::from_json(&json.replace("\"seed\"", "\"sede\"")).is_err());
        assert!(GoldenRecord::from_json(&json.replace("\"seed\": 7,", "")).is_err());
    }

    #[test]
    fn compare_flags_each_field() {
        let r = record();
        assert!(r.compare(&r, &GoldenTolerance::default()).is_ok());
        let mut bad = record();
        bad.hpwl_final *= 1.01; // 1% off: over the 0.1% tolerance
        bad.overflow += 1e-3;
        let errs = r
            .compare(&bad, &GoldenTolerance::default())
            .expect_err("must flag");
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn store_and_load() {
        let r = record();
        let path = std::env::temp_dir().join("dp_check_golden_unit_test.json");
        r.store(&path).expect("store");
        let back = GoldenRecord::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(r, back);
    }
}
