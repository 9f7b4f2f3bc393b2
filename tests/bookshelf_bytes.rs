//! Bookshelf bytes at the reader's edges: the text variations real files
//! carry (CRLF, comments, blank lines, tabs, no final newline, any other
//! Unicode whitespace as a separator) read to the plain file's design, and
//! files cut short, holding a byte that is not UTF-8 or holding a
//! non-finite number are reported as errors, never a panic.

use std::path::{Path, PathBuf};

use dreamplace::bookshelf::{read_design, write_design, BookshelfDesign, ParseBookshelfError};
use dreamplace::gen::GeneratorConfig;
use dreamplace::netlist::PinId;

const FILES: [&str; 5] = ["nodes", "nets", "pl", "scl", "wts"];

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dp-bookshelf-bytes-{tag}-{}", std::process::id()))
}

/// Writes a generated 50-cell design (with macros, so `.nodes` carries
/// terminals and `.pl` carries `/FIXED`) and returns its directory.
fn plain_design(tag: &str) -> PathBuf {
    let d = GeneratorConfig::new("d", 50, 56)
        .with_seed(5)
        .with_macros(2, 0.1)
        .generate::<f64>()
        .expect("valid design");
    let dir = scratch(tag);
    write_design(&dir, "d", &d.netlist, &d.fixed_positions).expect("write");
    dir
}

/// Every array the reader produces, as bits.
fn bits(d: &BookshelfDesign<f64>) -> Vec<u64> {
    let nl = &d.netlist;
    let mut v = vec![nl.num_cells() as u64, nl.num_movable() as u64];
    v.extend(
        nl.cell_widths()
            .iter()
            .chain(nl.cell_heights())
            .map(|x| x.to_bits()),
    );
    for net in nl.nets() {
        let r = nl.net_pin_range(net);
        v.extend([nl.net_weight(net).to_bits(), r.start as u64, r.end as u64]);
    }
    for p in 0..nl.num_pins() {
        let pin = PinId::new(p);
        let (dx, dy) = nl.pin_offset(pin);
        v.extend([nl.pin_cell(pin).index() as u64, dx.to_bits(), dy.to_bits()]);
    }
    v.extend(
        d.positions
            .x
            .iter()
            .chain(&d.positions.y)
            .map(|x| x.to_bits()),
    );
    for r in nl.rows().map(|g| g.rows()).unwrap_or(&[]) {
        v.extend([r.y, r.height, r.xl, r.xh, r.site_width].map(f64::to_bits));
    }
    let reg = nl.region();
    v.extend([reg.xl, reg.yl, reg.xh, reg.yh].map(f64::to_bits));
    v
}

/// A plain file's text rewritten with the variation `tag`; `"all"` applies
/// every variation in turn.
fn vary(tag: &str, text: &str) -> String {
    let lines = text.lines();
    match tag {
        "crlf" => lines.map(|l| format!("{l}\r\n")).collect(),
        "comments" => lines
            .map(|l| format!("# whole line\n{l} # mid-line #x\n"))
            .collect(),
        "blank" => lines.map(|l| format!("\n \t\n{l}\n")).collect(),
        "tabs" => text.replace(' ', "\t"),
        "no-final-newline" => text.trim_end().to_string(),
        // Separators `char::is_whitespace` takes and ASCII splitting
        // (`split_ascii_whitespace`) does not: vertical tab, no-break space,
        // next line and em space.
        "vt" => text.replace(' ', "\u{b}"),
        "nbsp" => text.replace(' ', "\u{a0}"),
        "nel" => text.replace(' ', "\u{85}"),
        "em-space" => text.replace(' ', "\u{2003}"),
        _ => VARIATIONS[..5]
            .iter()
            .fold(text.to_string(), |t, v| vary(v, &t)),
    }
}

const VARIATIONS: [&str; 10] = [
    "tabs",
    "comments",
    "blank",
    "crlf",
    "no-final-newline",
    "all",
    "vt",
    "nbsp",
    "nel",
    "em-space",
];

/// Rewrites every design file's text with the variation `tag` and reads
/// the design.
fn read_varied(dir: &Path, tag: &str) -> BookshelfDesign<f64> {
    for ext in FILES {
        let path = dir.join(format!("d.{ext}"));
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, vary(tag, &text)).expect("write");
    }
    read_design::<f64>(&dir.join("d.aux")).expect("varied design parses")
}

#[test]
fn text_variations_read_to_the_plain_design() {
    let plain_dir = plain_design("plain");
    let plain = bits(&read_design::<f64>(&plain_dir.join("d.aux")).expect("plain parses"));
    std::fs::remove_dir_all(&plain_dir).ok();

    for tag in VARIATIONS {
        let dir = plain_design(tag);
        let got = bits(&read_varied(&dir, tag));
        std::fs::remove_dir_all(&dir).ok();
        assert!(got == plain, "{tag}: design differs from the plain file's");
    }
}

#[test]
fn an_error_after_comments_and_blank_lines_reports_its_physical_line() {
    let dir = plain_design("physical-line");
    let nodes = dir.join("d.nodes");
    let text = std::fs::read_to_string(&nodes).expect("read");
    // Line 1 is the UCLA header; the bad line lands at physical line 6.
    let (head, rest) = text.split_once('\n').expect("header line");
    let edited =
        format!("{head}\r\n# a comment\r\n\r\n \t \r\n# NumNodes : 9\r\no0 2 zz\r\n{rest}");
    std::fs::write(&nodes, edited).expect("write");
    let err = read_design::<f64>(&dir.join("d.aux")).unwrap_err();
    std::fs::remove_dir_all(&dir).ok();
    match err {
        ParseBookshelfError::Malformed {
            file,
            line,
            message,
        } => {
            assert_eq!(file, nodes);
            assert_eq!(line, 6, "{message}");
            assert_eq!(message, "bad height");
        }
        other => panic!("unexpected error {other:?}"),
    }
}

/// Cuts each of `.nodes`, `.nets`, `.pl` and `.scl` at a fixed stride of
/// byte offsets, and separately overwrites the byte there with `0xFF`.
/// Every read returns; a cut file is `Ok`, or `Malformed` or `Io` naming
/// one of the design's files; a `0xFF` byte is always an `InvalidData`
/// read error at its own file and physical line, since every line before
/// it is intact.
#[test]
fn cut_and_non_utf8_files_are_errors_not_panics() {
    const STRIDE: usize = 23;
    let dir = plain_design("sweep");
    let aux = dir.join("d.aux");
    let design_files: Vec<PathBuf> = FILES.iter().map(|e| dir.join(format!("d.{e}"))).collect();
    let mut reads = 0usize;
    for ext in ["nodes", "nets", "pl", "scl"] {
        let path = dir.join(format!("d.{ext}"));
        let original = std::fs::read(&path).expect("read");
        for at in (0..original.len()).step_by(STRIDE) {
            std::fs::write(&path, &original[..at]).expect("write");
            match read_design::<f64>(&aux) {
                Ok(_) => {}
                Err(ParseBookshelfError::Io {
                    ref file,
                    line: Some(_),
                    ..
                })
                | Err(ParseBookshelfError::Malformed { ref file, .. })
                    if design_files.contains(file) => {}
                Err(other) => panic!("d.{ext} cut at byte {at}: unexpected error {other:?}"),
            }

            let mut poisoned = original.clone();
            poisoned[at] = 0xFF;
            std::fs::write(&path, &poisoned).expect("write");
            let physical_line = 1 + original[..at].iter().filter(|&&b| b == b'\n').count();
            match read_design::<f64>(&aux) {
                Err(ParseBookshelfError::Io { file, line, source })
                    if source.kind() == std::io::ErrorKind::InvalidData
                        && file == path
                        && line == Some(physical_line) => {}
                other => panic!("d.{ext} with 0xFF at byte {at} (line {physical_line}): {other:?}"),
            }
            reads += 2;
        }
        std::fs::write(&path, &original).expect("restore");
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(reads > 200, "only {reads} reads");
}

/// Byte ranges of the whitespace-separated tokens of `text` that parse as
/// `f64`.
fn numeric_tokens(text: &str) -> Vec<std::ops::Range<usize>> {
    let mut tokens = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        match (c.is_whitespace(), start) {
            (true, Some(s)) => {
                if text[s..i].parse::<f64>().is_ok() {
                    tokens.push(s..i);
                }
                start = None;
            }
            (false, None) => start = Some(i),
            _ => {}
        }
    }
    tokens
}

/// Writes `nan`, `inf` and `-inf` over every numeric token of every file,
/// one at a time. Every read returns `Ok`, `Malformed` or `Io` naming a
/// design file: never a panic. A non-finite `.scl` row coordinate is
/// `Malformed` at its line (it used to reach the region's `Rect::new`
/// assertion).
#[test]
fn non_finite_numbers_are_errors_not_panics() {
    let dir = plain_design("non-finite");
    let aux = dir.join("d.aux");
    let design_files: Vec<PathBuf> = FILES.iter().map(|e| dir.join(format!("d.{e}"))).collect();
    let (mut reads, mut malformed) = (0usize, 0usize);
    for path in &design_files {
        let original = std::fs::read_to_string(path).expect("read");
        for at in numeric_tokens(&original) {
            for value in ["nan", "inf", "-inf"] {
                let text = format!("{}{value}{}", &original[..at.start], &original[at.end..]);
                std::fs::write(path, &text).expect("write");
                let read = std::panic::catch_unwind(|| read_design::<f64>(&aux));
                let place = format!("{} byte {}: {value}", path.display(), at.start);
                match read {
                    Ok(Ok(_)) => {}
                    Ok(Err(
                        ParseBookshelfError::Malformed { ref file, .. }
                        | ParseBookshelfError::Io { ref file, .. },
                    )) if design_files.contains(file) => malformed += 1,
                    Ok(Err(other)) => panic!("{place}: unexpected error {other:?}"),
                    Err(_) => panic!("{place}: the read panicked"),
                }
                reads += 1;
            }
        }
        std::fs::write(path, &original).expect("restore");
    }

    let scl = dir.join("d.scl");
    let original = std::fs::read_to_string(&scl).expect("read");
    let (head, rest) = original.split_once("Coordinate").expect("a row");
    let (_, rest) = rest.split_once('\n').expect("row line");
    let line = 1 + head.matches('\n').count();
    std::fs::write(&scl, format!("{head}Coordinate : nan\n{rest}")).expect("write");
    let err = read_design::<f64>(&aux).unwrap_err();
    std::fs::remove_dir_all(&dir).ok();
    assert!(reads > 1000, "only {reads} reads");
    assert!(malformed > 0, "no non-finite number was refused");
    match err {
        ParseBookshelfError::Malformed {
            file,
            line: got,
            message,
        } => {
            assert_eq!((file, got), (scl, line), "{message}");
            assert_eq!(message, "bad Coordinate");
        }
        other => panic!("unexpected error {other:?}"),
    }
}
