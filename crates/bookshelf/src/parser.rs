//! Bookshelf parser: loads a design from its `.aux` file.
//!
//! The parser validates *syntax* (file structure, counts, cross-file
//! references) and reports [`ParseBookshelfError::Malformed`] with file
//! and line context. *Semantic* validation — fixed cells outside the core,
//! pin offsets outside their cell, duplicate pins, oversized movables,
//! non-finite geometry — is deliberately deferred to the flow's design
//! sanitizer (`dreamplace_core::sanitize`): the parser stays byte-faithful
//! so round-trips preserve the input exactly, and the sanitizer decides
//! per defect class whether to repair or abort, reporting either way.
//!
//! Each file is streamed once, front to back, through one reused line
//! buffer, so ingestion holds memory in proportion to the design, not to
//! the file: node names are kept once, in one arena, and no line, token
//! list or number list is allocated. A consequence: a byte that is not
//! UTF-8 is reported ([`ParseBookshelfError::Io`], at its file and line)
//! when the reader reaches its line, so a malformed line before it is
//! reported first.

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

use dp_gen::RoutingHints;
use dp_netlist::{BuilderCell, Netlist, NetlistBuilder, Placement, Row, RowGrid};
use dp_num::Float;

/// A parsed Bookshelf design.
#[derive(Debug, Clone)]
pub struct BookshelfDesign<T> {
    /// Design name (the `.aux` stem).
    pub name: String,
    /// The hypergraph (with rows attached when `.scl` is present).
    pub netlist: Netlist<T>,
    /// Coordinates from `.pl` (cell centers; fixed and movable).
    pub positions: Placement<T>,
    /// Routing resources from `.route` (DAC 2012 suites), when present.
    pub routing: Option<RoutingHints>,
}

/// Error raised while parsing Bookshelf files.
#[derive(Debug)]
pub enum ParseBookshelfError {
    /// An I/O failure reading `file`, such as a missing file or a byte
    /// that is not UTF-8.
    Io {
        /// The file being opened or read.
        file: PathBuf,
        /// Physical 1-based line being read; `None` when the failure came
        /// before the first line (opening the file) or from the `.aux`,
        /// which is read whole.
        line: Option<usize>,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The `.aux` or a file it names is not a regular file (a FIFO, a
    /// device, a directory): reading it could block or never end, so it is
    /// refused before any file is opened.
    NotAFile(PathBuf),
    /// A syntactic or semantic problem, with file and line context.
    Malformed {
        /// The file in which the problem occurred.
        file: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ParseBookshelfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBookshelfError::Io { file, line, source } => {
                write!(f, "bookshelf io error: {}", file.display())?;
                if let Some(line) = line {
                    write!(f, ":{line}")?;
                }
                write!(f, ": {source}")
            }
            ParseBookshelfError::NotAFile(path) => {
                write!(
                    f,
                    "bookshelf input {} is not a regular file",
                    path.display()
                )
            }
            ParseBookshelfError::Malformed {
                file,
                line,
                message,
            } => {
                write!(
                    f,
                    "malformed bookshelf file {}:{line}: {message}",
                    file.display()
                )
            }
        }
    }
}

impl Error for ParseBookshelfError {}

fn io_error(file: &Path, line: Option<usize>, source: std::io::Error) -> ParseBookshelfError {
    ParseBookshelfError::Io {
        file: file.to_path_buf(),
        line,
        source,
    }
}

fn malformed(file: &Path, line: usize, message: impl Into<String>) -> ParseBookshelfError {
    ParseBookshelfError::Malformed {
        file: file.to_path_buf(),
        line,
        message: message.into(),
    }
}

/// Refuses a path that exists but is not a regular file. A missing path
/// passes: the caller reports it when it opens the file, or skips an
/// optional one.
fn require_regular(path: &Path) -> Result<(), ParseBookshelfError> {
    match std::fs::metadata(path) {
        Ok(meta) if !meta.is_file() => Err(ParseBookshelfError::NotAFile(path.to_path_buf())),
        _ => Ok(()),
    }
}

/// The content lines of one Bookshelf file, read front to back: blank and
/// `UCLA` header lines are skipped, and each line is cut at its first `#`
/// and trimmed. A line is read in place in the reader's buffer, or, when
/// it runs past the buffer's end, gathered into one reused buffer; either
/// way it is checked to be UTF-8 once, as a whole.
struct Lines<'p> {
    path: &'p Path,
    reader: BufReader<File>,
    /// The last line, when it did not fit in the reader's buffer.
    long: Vec<u8>,
    /// Bytes at the front of the reader's buffer that the last line still
    /// borrows; they are consumed when the next line is read.
    held: usize,
    /// Physical 1-based number of the last line read.
    line: usize,
    /// Bytes of the file not yet read.
    left: usize,
}

impl<'p> Lines<'p> {
    fn open(path: &'p Path) -> Result<Self, ParseBookshelfError> {
        let file = File::open(path).map_err(|e| io_error(path, None, e))?;
        let len = file.metadata().map_err(|e| io_error(path, None, e))?.len();
        let left = usize::try_from(len).unwrap_or(usize::MAX);
        Ok(Lines {
            path,
            reader: BufReader::new(file),
            long: Vec::new(),
            held: 0,
            line: 0,
            left,
        })
    }

    /// Reads the next physical line, checks it is UTF-8 and returns its
    /// content's byte range and whether the line is all ASCII; `None` at
    /// the end of the file. The line is `self.raw()`.
    fn read(&mut self) -> Result<Option<(usize, usize, bool)>, ParseBookshelfError> {
        self.reader.consume(std::mem::take(&mut self.held));
        let at = self.line + 1;
        let fail = |e| io_error(self.path, Some(at), e);
        let buffered = self.reader.fill_buf().map_err(fail)?;
        if buffered.is_empty() {
            return Ok(None);
        }
        // The usual line (ASCII, no comment, ending in the buffer) is read
        // in one pass, to its first newline, `#` or non-ASCII byte.
        let (n, plain) = match first_stop(buffered) {
            Some(i) if buffered[i] == b'\n' => {
                self.held = i + 1;
                (i + 1, Some(ascii_trim(&buffered[..i])))
            }
            _ => match find_newline(buffered) {
                Some(i) => {
                    self.held = i + 1;
                    (i + 1, None)
                }
                None => {
                    self.long.clear();
                    let n = self
                        .reader
                        .read_until(b'\n', &mut self.long)
                        .map_err(fail)?;
                    (n, None)
                }
            },
        };
        self.line = at;
        self.left = self.left.saturating_sub(n);
        if let Some((start, end)) = plain {
            return Ok(Some((start, end, true)));
        }
        let raw = self.raw();
        if raw.is_ascii() {
            let cut = raw.iter().position(|&b| b == b'#').unwrap_or(raw.len());
            let (start, end) = ascii_trim(&raw[..cut]);
            return Ok(Some((start, end, true)));
        }
        let text = std::str::from_utf8(raw).map_err(|_| {
            let e = std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            );
            io_error(self.path, Some(at), e)
        })?;
        let body = &text[..text.find('#').unwrap_or(text.len())];
        let start = body.len() - body.trim_start().len();
        Ok(Some((start, start + body.trim().len(), false)))
    }

    /// The bytes of the last line read.
    fn raw(&self) -> &[u8] {
        if self.held > 0 {
            &self.reader.buffer()[..self.held]
        } else {
            &self.long
        }
    }

    /// The next content line and its physical line number; `None` at the
    /// end of the file.
    fn next(&mut self) -> Result<Option<(usize, Line<'_>)>, ParseBookshelfError> {
        let (start, end, ascii) = loop {
            let Some((start, end, ascii)) = self.read()? else {
                return Ok(None);
            };
            if start < end && !self.raw()[start..end].starts_with(b"UCLA") {
                break (start, end, ascii);
            }
        };
        // `read` checked the whole line, and a cut next to ASCII bytes
        // keeps it UTF-8: this second look at the content cannot fail.
        let text = std::str::from_utf8(&self.raw()[start..end]).unwrap_or_default();
        Ok(Some((self.line, Line { text, ascii })))
    }
}

/// `char::is_whitespace` on an ASCII byte. (`u8::is_ascii_whitespace`
/// leaves out U+000B.)
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// The ASCII text `body` trimmed, as a byte range.
fn ascii_trim(body: &[u8]) -> (usize, usize) {
    let start = body
        .iter()
        .position(|&b| !is_space(b))
        .unwrap_or(body.len());
    let end = body
        .iter()
        .rposition(|&b| !is_space(b))
        .map_or(start, |i| i + 1);
    (start, end)
}

/// Eight bytes, little end first.
type Word = u64;

const HIGHS: Word = Word::from_ne_bytes([0x80; 8]);

/// The high bit of each byte of `w` that holds `b`: exact at the lowest
/// such byte, while above it a byte after a match may be marked too.
fn bytes_equal(w: Word, b: u8) -> Word {
    let x = w ^ Word::from_ne_bytes([b; 8]);
    x.wrapping_sub(Word::from_ne_bytes([0x01; 8])) & !x & HIGHS
}

/// The first byte of `bytes` that `is_stop` accepts, looked for eight
/// bytes at a time through `stops`, which marks the high bit of a word's
/// stop bytes (exactly at the lowest one).
fn find_first(
    bytes: &[u8],
    stops: impl Fn(Word) -> Word,
    is_stop: impl Fn(u8) -> bool,
) -> Option<usize> {
    let mut chunks = bytes.chunks_exact(8);
    for (i, chunk) in (&mut chunks).enumerate() {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        let marks = stops(Word::from_le_bytes(word));
        if marks != 0 {
            return Some(8 * i + marks.trailing_zeros() as usize / 8);
        }
    }
    let tail = chunks.remainder();
    let at = bytes.len() - tail.len();
    tail.iter().position(|&b| is_stop(b)).map(|i| at + i)
}

/// The high bit of each byte of the ASCII word `w` that `is_space`
/// accepts: a space, or a byte from `\t` to `\r` (no byte carries into the
/// next while every high bit is clear).
fn ascii_spaces(w: Word) -> Word {
    let ones = Word::from_ne_bytes([0x01; 8]);
    let from_tab = w.wrapping_add(ones * (0x80 - 0x09));
    let past_cr = w.wrapping_add(ones * (0x80 - 0x0e));
    bytes_equal(w, b' ') | (from_tab & !past_cr & HIGHS)
}

/// Where the first `\n` of `bytes` is.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    find_first(bytes, |w| bytes_equal(w, b'\n'), |b| b == b'\n')
}

/// Where the first `\n`, `#` or non-ASCII byte of `bytes` is.
fn first_stop(bytes: &[u8]) -> Option<usize> {
    find_first(
        bytes,
        |w| bytes_equal(w, b'\n') | bytes_equal(w, b'#') | (w & HIGHS),
        |b| b == b'\n' || b == b'#' || !b.is_ascii(),
    )
}

/// One content line: its text and whether it is all ASCII, which picks
/// the byte-level split.
#[derive(Clone, Copy)]
struct Line<'a> {
    text: &'a str,
    ascii: bool,
}

impl<'a> Line<'a> {
    /// The whitespace-separated tokens, as `str::split_whitespace` cuts
    /// them.
    fn tokens(self) -> Tokens<'a> {
        if self.ascii {
            Tokens::Ascii(self.text)
        } else {
            Tokens::Unicode(self.text.split_whitespace())
        }
    }
}

enum Tokens<'a> {
    /// The rest of an ASCII line.
    Ascii(&'a str),
    Unicode(std::str::SplitWhitespace<'a>),
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        match self {
            Tokens::Ascii(rest) => {
                let bytes = rest.as_bytes();
                let start = bytes.iter().position(|&b| !is_space(b))?;
                let token = &bytes[start..];
                let len = find_first(token, ascii_spaces, is_space).unwrap_or(token.len());
                let (token, tail) = rest[start..].split_at(len);
                *rest = tail;
                Some(token)
            }
            Tokens::Unicode(split) => split.next(),
        }
    }
}

/// Names held once, end to end in one string, in the order they are read.
#[derive(Default)]
struct Names {
    text: String,
    /// Where each name starts in `text`.
    starts: Vec<usize>,
}

impl Names {
    fn push(&mut self, name: &str) {
        self.starts.push(self.text.len());
        self.text.push_str(name);
    }

    fn get(&self, i: usize) -> &str {
        let end = self.starts.get(i + 1).copied().unwrap_or(self.text.len());
        &self.text[self.starts[i]..end]
    }

    /// Each name's index; a repeated name maps to its last entry.
    fn index(&self) -> HashMap<&str, usize> {
        (0..self.starts.len()).map(|i| (self.get(i), i)).collect()
    }
}

/// Extracts `Key : value` integer headers like `NumNodes : 123`.
fn header_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(key)?.trim_start();
    let rest = rest.strip_prefix(':')?.trim();
    Some(rest.split_whitespace().next().unwrap_or(""))
}

/// `v` as a finite `f64`.
fn finite(v: &str) -> Option<f64> {
    v.parse::<f64>().ok().filter(|x| x.is_finite())
}

/// The first two tokens that parse as `f64`. A token whose first byte
/// cannot start one (`B`, `:`) is skipped without a parse.
fn two_numbers<'a>(tokens: impl Iterator<Item = &'a str>) -> Option<(f64, f64)> {
    let mut nums = tokens
        .filter(|t| {
            matches!(
                t.as_bytes().first(),
                Some(b'0'..=b'9' | b'+' | b'-' | b'.' | b'i' | b'I' | b'n' | b'N')
            )
        })
        .filter_map(|t| t.parse::<f64>().ok());
    Some((nums.next()?, nums.next()?))
}

/// A net whose pins are still being read.
struct OpenNet<T> {
    /// Line of its `NetDegree` header.
    line: usize,
    degree: usize,
    weight: f64,
    pins: Vec<(BuilderCell, T, T)>,
}

/// Reads a design from its `.aux` file.
///
/// # Errors
///
/// Returns [`ParseBookshelfError`] on I/O failures, on an `.aux` or named
/// file that is not a regular file, or on malformed content.
pub fn read_design<T: Float>(aux_path: &Path) -> Result<BookshelfDesign<T>, ParseBookshelfError> {
    require_regular(aux_path)?;
    let aux_dir = aux_path.parent().unwrap_or(Path::new("."));
    let name = aux_path
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "design".to_string());
    let aux = std::fs::read_to_string(aux_path).map_err(|e| io_error(aux_path, None, e))?;
    let mut files: BTreeMap<&str, PathBuf> = BTreeMap::new();
    for token in aux.split_whitespace() {
        if let Some(ext) = Path::new(token).extension() {
            files.insert(
                match ext.to_string_lossy().as_ref() {
                    "nodes" => "nodes",
                    "nets" => "nets",
                    "pl" => "pl",
                    "scl" => "scl",
                    "wts" => "wts",
                    "route" => "route",
                    _ => continue,
                },
                aux_dir.join(token),
            );
        }
    }
    for path in files.values() {
        require_regular(path)?;
    }
    let get = |k: &str| -> Result<PathBuf, ParseBookshelfError> {
        files
            .get(k)
            .cloned()
            .ok_or_else(|| malformed(aux_path, 1, format!("aux lists no .{k} file")))
    };

    // --- .nodes ------------------------------------------------------
    let nodes_path = get("nodes")?;
    let mut names = Names::default();
    let mut node_dims: Vec<(f64, f64, bool)> = Vec::new();
    let mut declared_nodes: Option<(usize, usize)> = None; // (count, header line)
    let mut lines = Lines::open(&nodes_path)?;
    while let Some((ln, line)) = lines.next()? {
        if let Some(v) = header_value(line.text, "NumNodes") {
            let n = v
                .parse()
                .map_err(|_| malformed(&nodes_path, ln, "bad NumNodes"))?;
            declared_nodes = Some((n, ln));
            continue;
        }
        if line.text.starts_with("NumTerminals") {
            continue;
        }
        let mut tok = line.tokens();
        let (Some(node), Some(w), Some(h)) = (tok.next(), tok.next(), tok.next()) else {
            return Err(malformed(
                &nodes_path,
                ln,
                "expected: name width height [terminal]",
            ));
        };
        let w: f64 = w
            .parse()
            .map_err(|_| malformed(&nodes_path, ln, "bad width"))?;
        let h: f64 = h
            .parse()
            .map_err(|_| malformed(&nodes_path, ln, "bad height"))?;
        let fixed = tok.next().is_some_and(|t| t.starts_with("terminal"));
        names.push(node);
        node_dims.push((w, h, fixed));
    }
    if let Some((n, ln)) = declared_nodes {
        if n != node_dims.len() {
            return Err(malformed(
                &nodes_path,
                ln,
                format!(
                    "NumNodes declares {n} nodes but the file defines {} \
                     (truncated or duplicated entries?)",
                    node_dims.len()
                ),
            ));
        }
    }
    // One map serves `.pl` and `.nets`.
    let node_of = names.index();

    // --- .scl --------------------------------------------------------
    let rows = match files.get("scl") {
        Some(scl_path) => parse_scl::<T>(scl_path)?,
        None => None,
    };

    // --- .pl ---------------------------------------------------------
    // Lower-left corners by node; unknown names are ignored and the last
    // entry for a name wins.
    let pl_path = get("pl")?;
    let mut pl: Vec<Option<(f64, f64)>> = vec![None; node_dims.len()];
    let mut lines = Lines::open(&pl_path)?;
    while let Some((ln, line)) = lines.next()? {
        let mut tok = line.tokens();
        let (Some(node), Some(x), Some(y)) = (tok.next(), tok.next(), tok.next()) else {
            return Err(malformed(&pl_path, ln, "expected: name x y : orient"));
        };
        let x: f64 = x.parse().map_err(|_| malformed(&pl_path, ln, "bad x"))?;
        let y: f64 = y.parse().map_err(|_| malformed(&pl_path, ln, "bad y"))?;
        if let Some(&i) = node_of.get(node) {
            pl[i] = Some((x, y));
        }
    }
    let pl_of = |i: usize| node_of.get(names.get(i)).and_then(|&j| pl[j]);

    // Region: prefer row extent, fall back to the pl/node bounding box.
    let (xl, yl, xh, yh) = match &rows {
        Some(grid) => {
            let rs = grid.rows();
            let xl = rs
                .iter()
                .map(|r| r.xl.to_f64())
                .fold(f64::INFINITY, f64::min);
            let xh = rs
                .iter()
                .map(|r| r.xh.to_f64())
                .fold(f64::NEG_INFINITY, f64::max);
            let yl = rs.first().map(|r| r.y.to_f64()).unwrap_or(0.0);
            let yh = rs.last().map(|r| (r.y + r.height).to_f64()).unwrap_or(0.0);
            (xl, yl, xh, yh)
        }
        None => {
            let mut xl = f64::INFINITY;
            let mut yl = f64::INFINITY;
            let mut xh = f64::NEG_INFINITY;
            let mut yh = f64::NEG_INFINITY;
            for (i, &(w, h, _)) in node_dims.iter().enumerate() {
                if let Some((x, y)) = pl_of(i) {
                    xl = xl.min(x);
                    yl = yl.min(y);
                    xh = xh.max(x + w);
                    yh = yh.max(y + h);
                }
            }
            (xl, yl, xh, yh)
        }
    };

    // --- build netlist -------------------------------------------------
    let mut builder = NetlistBuilder::<T>::new(
        T::from_f64(xl),
        T::from_f64(yl),
        T::from_f64(xh.max(xl + 1.0)),
        T::from_f64(yh.max(yl + 1.0)),
    )
    .allow_degenerate_nets(true);
    if let Some(grid) = rows {
        builder = builder.with_rows(grid);
    }
    let handles: Vec<BuilderCell> = node_dims
        .iter()
        .map(|&(w, h, fixed)| {
            if fixed {
                builder.add_fixed_cell(T::from_f64(w), T::from_f64(h))
            } else {
                builder.add_movable_cell(T::from_f64(w), T::from_f64(h))
            }
        })
        .collect();

    // --- .wts (optional net weights) -----------------------------------
    let mut net_names = Names::default();
    let mut weights: Vec<f64> = Vec::new();
    if let Some(wts_path) = files.get("wts").filter(|p| p.exists()) {
        let mut lines = Lines::open(wts_path)?;
        while let Some((ln, line)) = lines.next()? {
            let mut tok = line.tokens();
            let (Some(net), Some(w), None) = (tok.next(), tok.next(), tok.next()) else {
                return Err(malformed(wts_path, ln, "expected: net_name weight"));
            };
            weights.push(
                w.parse()
                    .map_err(|_| malformed(wts_path, ln, "bad weight"))?,
            );
            net_names.push(net);
        }
    }

    let weight_of = net_names.index();

    // --- .nets ---------------------------------------------------------
    // One line at a time: a `NetDegree` header opens a net, which takes
    // the lines after it as pins until it holds its degree.
    let nets_path = get("nets")?;
    let truncated = |net: &OpenNet<T>| {
        let (degree, found) = (net.degree, net.pins.len());
        let msg = format!("net truncated: NetDegree {degree}, {found} pins follow");
        malformed(&nets_path, net.line, msg)
    };
    let mut declared_nets: Option<(usize, usize)> = None; // (count, header line)
    let mut declared_pins: Option<(usize, usize)> = None;
    let mut parsed_nets = 0usize;
    let mut parsed_pins = 0usize;
    let mut open: Option<OpenNet<T>> = None;
    let mut lines = Lines::open(&nets_path)?;
    while let Some((ln, line)) = lines.next()? {
        match open.as_mut() {
            Some(net) if header_value(line.text, "NetDegree").is_none() => {
                // Format: name dir : dx dy  (offsets optional); a content
                // line is never empty.
                let mut tok = line.tokens();
                let node = tok.next().unwrap_or("");
                let &i = node_of
                    .get(node)
                    .ok_or_else(|| malformed(&nets_path, ln, format!("unknown node {node}")))?;
                let (dx, dy) = two_numbers(tok).unwrap_or((0.0, 0.0));
                net.pins
                    .push((handles[i], T::from_f64(dx), T::from_f64(dy)));
            }
            Some(net) => return Err(truncated(net)),
            None => {
                if let Some(v) = header_value(line.text, "NumNets") {
                    let n = v
                        .parse()
                        .map_err(|_| malformed(&nets_path, ln, "bad NumNets"))?;
                    declared_nets = Some((n, ln));
                    continue;
                }
                if let Some(v) = header_value(line.text, "NumPins") {
                    let n = v
                        .parse()
                        .map_err(|_| malformed(&nets_path, ln, "bad NumPins"))?;
                    declared_pins = Some((n, ln));
                    continue;
                }
                let Some(deg_str) = header_value(line.text, "NetDegree") else {
                    return Err(malformed(
                        &nets_path,
                        ln,
                        format!("expected NetDegree, got: {}", line.text),
                    ));
                };
                let degree: usize = deg_str
                    .parse()
                    .map_err(|_| malformed(&nets_path, ln, "bad NetDegree"))?;
                let net_name = line.tokens().last().unwrap_or("");
                let weight = weight_of.get(net_name).map_or(1.0, |&i| weights[i]);
                // The declared degree is the file's claim: reserve no more
                // pins than the rest of the file can hold (a pin line takes
                // at least a name byte and a newline).
                let pins = Vec::with_capacity(degree.min(lines.left.div_ceil(2)));
                open = Some(OpenNet {
                    line: ln,
                    degree,
                    weight,
                    pins,
                });
            }
        }
        if let Some(net) = open.take_if(|net| net.pins.len() == net.degree) {
            parsed_nets += 1;
            parsed_pins += net.degree;
            builder
                .add_net(T::from_f64(net.weight), net.pins)
                .map_err(|e| malformed(&nets_path, net.line, e.to_string()))?;
        }
    }
    if let Some(net) = &open {
        return Err(truncated(net));
    }
    if let Some((n, ln)) = declared_nets {
        if n != parsed_nets {
            return Err(malformed(
                &nets_path,
                ln,
                format!("NumNets declares {n} nets but the file defines {parsed_nets}"),
            ));
        }
    }
    if let Some((n, ln)) = declared_pins {
        if n != parsed_pins {
            return Err(malformed(
                &nets_path,
                ln,
                format!("NumPins declares {n} pins but the file defines {parsed_pins}"),
            ));
        }
    }

    let netlist = builder
        .build()
        .map_err(|e| malformed(&nodes_path, 0, e.to_string()))?;

    // Positions: movable cells keep pl coordinates too (useful for warm
    // starts); convert lower-left to centers. The builder renumbers fixed
    // cells after movable ones, preserving relative order in each class.
    let mut positions = Placement::zeros(netlist.num_cells());
    for (i, (&(w, h, fixed), cell)) in node_dims.iter().zip(&handles).enumerate() {
        let id = if fixed {
            netlist.num_movable() + cell.index()
        } else {
            cell.index()
        };
        let Some((x, y)) = pl_of(i) else {
            return Err(malformed(
                &pl_path,
                0,
                format!("node {} has no entry in the .pl file", names.get(i)),
            ));
        };
        positions.x[id] = T::from_f64(x + w / 2.0);
        positions.y[id] = T::from_f64(y + h / 2.0);
    }

    // --- .route (optional) -----------------------------------------------
    let routing = match files.get("route") {
        Some(route_path) if route_path.exists() => parse_route(route_path)?,
        _ => None,
    };

    Ok(BookshelfDesign {
        name,
        netlist,
        positions,
        routing,
    })
}

/// Parses a DAC 2012-style `.route` file into [`RoutingHints`]: layer
/// count, per-direction capacities (max across layers of each preferred
/// direction), and tile size.
fn parse_route(path: &Path) -> Result<Option<RoutingHints>, ParseBookshelfError> {
    let mut hints = RoutingHints::default();
    let mut saw_layers = false;
    fn nums(l: &str) -> impl Iterator<Item = usize> + '_ {
        l.split(':')
            .nth(1)
            .unwrap_or("")
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
    }
    let mut lines = Lines::open(path)?;
    while let Some((ln, line)) = lines.next()? {
        if line.text.starts_with("NumLayers") {
            hints.num_layers = nums(line.text)
                .next()
                .ok_or_else(|| malformed(path, ln, "bad NumLayers"))?;
            saw_layers = true;
        } else if line.text.starts_with("HorizontalCapacity") {
            hints.capacity_h = nums(line.text).max().unwrap_or(0);
        } else if line.text.starts_with("VerticalCapacity") {
            hints.capacity_v = nums(line.text).max().unwrap_or(0);
        } else if line.text.starts_with("TileSize") {
            if let Some(t) = nums(line.text).next() {
                hints.tile_sites = t;
            }
        }
    }
    Ok(saw_layers.then_some(hints))
}

/// Parses `.scl` rows; `None` when the file declares zero rows.
fn parse_scl<T: Float>(path: &Path) -> Result<Option<RowGrid<T>>, ParseBookshelfError> {
    let mut rows: Vec<Row<T>> = Vec::new();
    let mut cur_y: Option<f64> = None;
    let mut cur_h = 0.0f64;
    let mut cur_site = 1.0f64;
    let mut cur_origin = 0.0f64;
    let mut cur_sites = 0usize;
    let mut lines = Lines::open(path)?;
    while let Some((ln, line)) = lines.next()? {
        // Row geometry must be finite: the region is built from it.
        if let Some(v) = header_value(line.text, "Coordinate") {
            cur_y = Some(finite(v).ok_or_else(|| malformed(path, ln, "bad Coordinate"))?);
        } else if let Some(v) = header_value(line.text, "Height") {
            cur_h = finite(v).ok_or_else(|| malformed(path, ln, "bad Height"))?;
        } else if let Some(v) = header_value(line.text, "Sitewidth") {
            cur_site = finite(v).ok_or_else(|| malformed(path, ln, "bad Sitewidth"))?;
        } else if line.text.starts_with("SubrowOrigin") {
            // "SubrowOrigin : x NumSites : n"
            let numbers = two_numbers(line.tokens())
                .filter(|(origin, sites)| origin.is_finite() && sites.is_finite());
            let Some((origin, sites)) = numbers else {
                return Err(malformed(
                    path,
                    ln,
                    "expected: SubrowOrigin : x NumSites : n",
                ));
            };
            cur_origin = origin;
            cur_sites = sites as usize;
        } else if line.text == "End" {
            if let Some(y) = cur_y.take() {
                rows.push(Row {
                    y: T::from_f64(y),
                    height: T::from_f64(cur_h),
                    xl: T::from_f64(cur_origin),
                    xh: T::from_f64(cur_origin + cur_sites as f64 * cur_site),
                    site_width: T::from_f64(cur_site),
                });
            }
        }
    }
    Ok(if rows.is_empty() {
        None
    } else {
        Some(RowGrid::from_rows(rows))
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::writer::write_design;
    use dp_gen::GeneratorConfig;
    use dp_netlist::hpwl;

    fn round_trip(
        tag: &str,
        macros: usize,
    ) -> (BookshelfDesign<f64>, dp_gen::GeneratedDesign<f64>) {
        let d = GeneratorConfig::new(tag, 48, 55)
            .with_macros(macros, 0.15)
            .with_seed(21)
            .generate::<f64>()
            .expect("ok");
        let dir = std::env::temp_dir().join(format!("dp-bookshelf-{tag}"));
        write_design(&dir, tag, &d.netlist, &d.fixed_positions).expect("writes");
        let parsed = read_design::<f64>(&dir.join(format!("{tag}.aux"))).expect("parses");
        (parsed, d)
    }

    #[test]
    fn round_trip_preserves_structure() {
        let (parsed, original) = round_trip("rt1", 0);
        assert_eq!(parsed.netlist.num_cells(), original.netlist.num_cells());
        assert_eq!(parsed.netlist.num_movable(), original.netlist.num_movable());
        assert_eq!(parsed.netlist.num_nets(), original.netlist.num_nets());
        assert_eq!(parsed.netlist.num_pins(), original.netlist.num_pins());
        let rows = parsed.netlist.rows().expect("scl parsed");
        assert_eq!(
            rows.rows().len(),
            original.netlist.rows().expect("rows").rows().len()
        );
    }

    #[test]
    fn round_trip_preserves_hpwl() {
        let (parsed, original) = round_trip("rt2", 2);
        // Evaluate HPWL at the same coordinates on both sides.
        let mut p = original.fixed_positions.clone();
        for i in 0..original.netlist.num_movable() {
            p.x[i] = 10.0 + (i % 13) as f64;
            p.y[i] = 12.0 + (i % 7) as f64;
        }
        let a = hpwl(&original.netlist, &p);
        let b = hpwl(&parsed.netlist, &p);
        assert!((a - b).abs() < 1e-6 * a.max(1.0), "{a} vs {b}");
    }

    #[test]
    fn fixed_positions_survive() {
        let (parsed, original) = round_trip("rt3", 3);
        let n_mov = original.netlist.num_movable();
        for i in n_mov..original.netlist.num_cells() {
            assert!(
                (parsed.positions.x[i] - original.fixed_positions.x[i]).abs() < 1e-9,
                "fixed x {i}"
            );
            assert!(
                (parsed.positions.y[i] - original.fixed_positions.y[i]).abs() < 1e-9,
                "fixed y {i}"
            );
        }
    }

    #[test]
    fn missing_file_is_reported() {
        let err = read_design::<f64>(Path::new("/nonexistent/x.aux")).unwrap_err();
        match err {
            ParseBookshelfError::Io { file, line, .. } => {
                assert_eq!(file, Path::new("/nonexistent/x.aux"));
                assert_eq!(line, None);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn malformed_nodes_line_is_reported_with_location() {
        let dir = std::env::temp_dir().join("dp-bookshelf-bad");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(
            dir.join("bad.aux"),
            "RowBasedPlacement : bad.nodes bad.nets bad.pl",
        )
        .expect("write");
        std::fs::write(dir.join("bad.nodes"), "UCLA nodes 1.0\nNumNodes : 1\no0\n").expect("write");
        std::fs::write(dir.join("bad.nets"), "UCLA nets 1.0\n").expect("write");
        std::fs::write(dir.join("bad.pl"), "UCLA pl 1.0\n").expect("write");
        let err = read_design::<f64>(&dir.join("bad.aux")).unwrap_err();
        match err {
            ParseBookshelfError::Malformed { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// Writes a minimal valid design, applies `mutate` to one file, and
    /// returns the parse result.
    fn corrupted(
        tag: &str,
        file: &str,
        content: &str,
    ) -> Result<BookshelfDesign<f64>, ParseBookshelfError> {
        let dir = std::env::temp_dir().join(format!("dp-bookshelf-corrupt-{tag}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("d.aux"), "RowBasedPlacement : d.nodes d.nets d.pl")
            .expect("write");
        std::fs::write(
            dir.join("d.nodes"),
            "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\no0 2 2\no1 2 2\n",
        )
        .expect("write");
        std::fs::write(
            dir.join("d.nets"),
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\no0 I : 0 0\no1 O : 0 0\n",
        )
        .expect("write");
        std::fs::write(dir.join("d.pl"), "UCLA pl 1.0\no0 0 0 : N\no1 4 4 : N\n").expect("write");
        std::fs::write(dir.join(file), content).expect("write");
        read_design::<f64>(&dir.join("d.aux"))
    }

    fn expect_malformed(
        result: Result<BookshelfDesign<f64>, ParseBookshelfError>,
        expect_line: usize,
        expect_msg: &str,
    ) {
        match result.unwrap_err() {
            ParseBookshelfError::Malformed { line, message, .. } => {
                assert_eq!(line, expect_line, "{message}");
                assert!(message.contains(expect_msg), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn baseline_fixture_parses() {
        let d = corrupted(
            "baseline",
            "d.aux",
            "RowBasedPlacement : d.nodes d.nets d.pl",
        )
        .expect("valid fixture");
        assert_eq!(d.netlist.num_cells(), 2);
        assert_eq!(d.netlist.num_nets(), 1);
    }

    #[test]
    fn truncated_nodes_count_is_reported() {
        let r = corrupted(
            "nodecount",
            "d.nodes",
            "UCLA nodes 1.0\nNumNodes : 3\no0 2 2\no1 2 2\n",
        );
        expect_malformed(r, 2, "NumNodes declares 3");
    }

    #[test]
    fn truncated_net_is_reported() {
        let r = corrupted(
            "nettrunc",
            "d.nets",
            "UCLA nets 1.0\nNumNets : 1\nNetDegree : 2 n0\no0 I : 0 0\n",
        );
        expect_malformed(r, 3, "net truncated");
    }

    #[test]
    fn absurd_net_degree_is_a_truncated_net_not_an_allocation() {
        // The degree is a count the file declares: reserving it up front
        // asked the allocator for 2.4 TB and aborted the process.
        let r = corrupted(
            "absurddegree",
            "d.nets",
            "UCLA nets 1.0\nNetDegree : 99999999999 n0\no0 I : 0 0\no1 O : 0 0\n",
        );
        expect_malformed(r, 2, "net truncated");
    }

    #[test]
    fn net_degree_does_not_swallow_the_next_net() {
        let r = corrupted(
            "swallow",
            "d.nets",
            "UCLA nets 1.0\nNetDegree : 3 n0\no0 I : 0 0\nNetDegree : 1 n1\no1 O : 0 0\n",
        );
        expect_malformed(r, 2, "NetDegree 3, 1 pins follow");
    }

    fn expect_not_a_file(result: Result<BookshelfDesign<f64>, ParseBookshelfError>, path: &Path) {
        match result.unwrap_err() {
            ParseBookshelfError::NotAFile(p) => assert_eq!(p, path),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn device_aux_is_refused_without_reading() {
        // Reading /dev/zero never ends; it must be refused by its type,
        // with a message that names the path and echoes no contents.
        let aux = Path::new("/dev/zero");
        let err = read_design::<f64>(aux).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bookshelf input /dev/zero is not a regular file"
        );
        expect_not_a_file(Err(err), aux);
    }

    #[test]
    fn directory_aux_and_directory_named_by_aux_are_refused() {
        let dir = std::env::temp_dir().join("dp-bookshelf-dir.aux");
        std::fs::create_dir_all(&dir).expect("mkdir");
        expect_not_a_file(read_design::<f64>(&dir), &dir);

        let base = std::env::temp_dir().join("dp-bookshelf-dirnamed");
        std::fs::create_dir_all(base.join("d.nets")).expect("mkdir");
        std::fs::write(
            base.join("d.aux"),
            "RowBasedPlacement : d.nodes d.nets d.pl",
        )
        .expect("write");
        std::fs::write(base.join("d.nodes"), "UCLA nodes 1.0\no0 2 2\n").expect("write");
        std::fs::write(base.join("d.pl"), "UCLA pl 1.0\no0 0 0 : N\n").expect("write");
        let err = read_design::<f64>(&base.join("d.aux"));
        expect_not_a_file(err, &base.join("d.nets"));
    }

    #[test]
    fn net_count_mismatch_is_reported() {
        let r = corrupted(
            "netcount",
            "d.nets",
            "UCLA nets 1.0\nNumNets : 2\nNetDegree : 2 n0\no0 I : 0 0\no1 O : 0 0\n",
        );
        expect_malformed(r, 2, "NumNets declares 2");
    }

    #[test]
    fn pin_count_mismatch_is_reported() {
        let r = corrupted(
            "pincount",
            "d.nets",
            "UCLA nets 1.0\nNumPins : 5\nNetDegree : 2 n0\no0 I : 0 0\no1 O : 0 0\n",
        );
        expect_malformed(r, 2, "NumPins declares 5");
    }

    #[test]
    fn unknown_node_in_net_is_reported() {
        let r = corrupted(
            "unknownnode",
            "d.nets",
            "UCLA nets 1.0\nNetDegree : 2 n0\noX I : 0 0\no1 O : 0 0\n",
        );
        expect_malformed(r, 3, "unknown node oX");
    }

    #[test]
    fn bad_pl_coordinate_is_reported() {
        let r = corrupted("badpl", "d.pl", "UCLA pl 1.0\no0 zero 0 : N\no1 4 4 : N\n");
        expect_malformed(r, 2, "bad x");
    }

    #[test]
    fn pl_keeps_the_last_entry_of_a_name_and_ignores_unknown_names() {
        let d = corrupted(
            "pllast",
            "d.pl",
            "UCLA pl 1.0\no0 0 0 : N\no1 4 4 : N\nzz 9 9 : N\no0 6 8 : N /FIXED\n",
        )
        .expect("parses");
        assert_eq!((d.positions.x[0], d.positions.y[0]), (7.0, 9.0));
        assert_eq!((d.positions.x[1], d.positions.y[1]), (5.0, 5.0));
    }

    #[test]
    fn pin_offsets_are_the_first_two_numbers_after_the_name() {
        let d = corrupted(
            "pinnums",
            "d.nets",
            "UCLA nets 1.0\nNetDegree : 3 n0\no0 I : 0.5\no1 O : 0.25 -0.5 9\no0 7 : 1\n",
        )
        .expect("parses");
        let offsets: Vec<(f64, f64)> = (0..3)
            .map(|p| d.netlist.pin_offset(dp_netlist::PinId::new(p)))
            .collect();
        assert_eq!(offsets, [(0.0, 0.0), (0.25, -0.5), (7.0, 1.0)]);
    }

    #[test]
    fn ascii_lines_split_and_trim_as_unicode_whitespace_does() {
        // Every ASCII whitespace byte, its neighbours, and token bytes, in
        // seeded lines of every length around the eight-byte word.
        let alphabet = b"\x08\t\n\x0b\x0c\r\x0e\x1f !o1.#-";
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        for len in 0..40 {
            for _ in 0..200 {
                let line: String = (0..len)
                    .map(|_| {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        char::from(alphabet[(seed % alphabet.len() as u64) as usize])
                    })
                    .collect();
                let ascii = Line {
                    text: &line,
                    ascii: true,
                };
                let unicode = Line {
                    text: &line,
                    ascii: false,
                };
                assert!(ascii.tokens().eq(unicode.tokens()), "{line:?}");
                let (start, end) = ascii_trim(line.as_bytes());
                assert_eq!(&line[start..end], line.trim(), "{line:?}");
                let stop = line.find(['\n', '#']);
                assert_eq!(first_stop(line.as_bytes()), stop, "{line:?}");
                assert_eq!(find_newline(line.as_bytes()), line.find('\n'), "{line:?}");
            }
        }
    }

    #[test]
    fn node_missing_from_pl_is_reported() {
        let r = corrupted("missingpl", "d.pl", "UCLA pl 1.0\no0 0 0 : N\n");
        expect_malformed(r, 0, "o1 has no entry");
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod route_tests {
    use super::*;
    use crate::writer::{write_design, write_route_file};
    use dp_gen::GeneratorConfig;

    #[test]
    fn route_file_round_trips() {
        let d = GeneratorConfig::new("rt-route", 32, 40)
            .generate::<f64>()
            .expect("ok");
        let dir = std::env::temp_dir().join("dp-bookshelf-route");
        write_design(&dir, "rt-route", &d.netlist, &d.fixed_positions).expect("writes");
        let hints = RoutingHints {
            num_layers: 8,
            capacity_h: 24,
            capacity_v: 20,
            tile_sites: 40,
        };
        write_route_file(&dir, "rt-route", &hints).expect("writes route");
        let parsed = read_design::<f64>(&dir.join("rt-route.aux")).expect("parses");
        let got = parsed.routing.expect("route file parsed");
        assert_eq!(got.num_layers, 8);
        assert_eq!(got.capacity_h, 24);
        assert_eq!(got.capacity_v, 20);
        assert_eq!(got.tile_sites, 40);
    }

    #[test]
    fn missing_route_file_yields_none() {
        let d = GeneratorConfig::new("rt-nr", 16, 20)
            .generate::<f64>()
            .expect("ok");
        let dir = std::env::temp_dir().join("dp-bookshelf-noroute");
        write_design(&dir, "rt-nr", &d.netlist, &d.fixed_positions).expect("writes");
        let parsed = read_design::<f64>(&dir.join("rt-nr.aux")).expect("parses");
        assert!(parsed.routing.is_none());
    }
}
