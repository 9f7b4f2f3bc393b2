//! Bookshelf placement format reader and writer.
//!
//! The ISPD 2005 and DAC 2012 contest benchmarks the paper evaluates on are
//! distributed in the UCLA Bookshelf format (`.aux`, `.nodes`, `.nets`,
//! `.pl`, `.scl`, `.wts`). This crate reads and writes that format so that
//!
//! * real contest files can be placed when available, and
//! * synthetic designs round-trip through disk, giving the benchmark
//!   harness a faithful "IO" phase to time (the paper's Tables II/III
//!   report an IO column).
//!
//! Coordinates in `.pl` are node lower-left corners (Bookshelf convention);
//! the in-memory model uses cell centers, and conversion happens at the
//! boundary. Pin offsets in `.nets` are center-relative in both.
//!
//! # Examples
//!
//! ```
//! use dp_bookshelf::{read_design, write_design};
//! use dp_gen::GeneratorConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = GeneratorConfig::new("demo", 64, 70).generate::<f64>()?;
//! let dir = std::env::temp_dir().join("dp-bookshelf-doc");
//! std::fs::create_dir_all(&dir)?;
//! write_design(&dir, "demo", &d.netlist, &d.fixed_positions)?;
//! let loaded = read_design::<f64>(&dir.join("demo.aux"))?;
//! assert_eq!(loaded.netlist.num_cells(), d.netlist.num_cells());
//! assert_eq!(loaded.netlist.num_pins(), d.netlist.num_pins());
//! # Ok(())
//! # }
//! ```

// Library code must surface structured errors instead of panicking;
// tests opt out module-by-module.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod decimal;
pub mod parser;
pub mod writer;

pub use parser::{read_design, BookshelfDesign, ParseBookshelfError};
pub use writer::{write_design, write_route_file};
