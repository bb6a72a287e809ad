//! Text serialization of trained models.
//!
//! This is the interchange format of the toolflow's *yellow path* (Fig 6):
//! models trained outside MATADOR can be written in this format and imported
//! straight into design generation. The format is line-oriented and
//! diff-friendly:
//!
//! ```text
//! MATADOR-TM v1
//! features 784
//! classes 10
//! clauses_per_class 200
//! c 0 0 pos 3,17,42 neg 100,205
//! c 0 1 pos - neg 7
//! ...
//! end
//! ```
//!
//! Clause lines may be omitted for empty clauses; `pos -` / `neg -` denote
//! empty literal lists.

use crate::bits::BitVec;
use crate::model::{IncludeMask, TrainedModel};
use std::fmt;
use std::io::{BufRead, Write};

/// Error produced when parsing a model file fails.
#[derive(Debug)]
pub struct ParseModelError {
    line: usize,
    kind: ParseModelErrorKind,
}

/// What went wrong while parsing; each variant carries the offending
/// values so import tooling can react without scraping message strings.
#[derive(Debug)]
#[non_exhaustive]
pub enum ParseModelErrorKind {
    /// The first line was not `MATADOR-TM v1`.
    MissingHeader,
    /// The stream ended before the named element was seen.
    UnexpectedEof {
        /// What the parser was looking for.
        wanted: String,
    },
    /// The underlying reader failed.
    Io(std::io::Error),
    /// A header line did not match `<key> <n>`.
    MalformedHeader {
        /// The expected key (`features`, `classes`, `clauses_per_class`).
        key: String,
    },
    /// A required token was absent or unparseable.
    BadToken {
        /// What the token encodes.
        what: String,
    },
    /// An expected literal keyword (`pos`, `neg`) was missing.
    ExpectedKeyword {
        /// The missing keyword.
        keyword: String,
    },
    /// A header dimension was zero.
    ZeroDimensions,
    /// `classes × clauses_per_class` does not fit in a `usize`.
    ClauseCountOverflow {
        /// The declared class count.
        classes: usize,
        /// The declared clauses per class.
        clauses_per_class: usize,
    },
    /// A non-header line did not start with `c`.
    ExpectedClauseLine,
    /// Clause coordinates exceeded the declared model shape.
    ClauseOutOfRange {
        /// Parsed class index.
        class: usize,
        /// Parsed clause index.
        clause: usize,
    },
    /// The same `(class, clause)` appeared twice.
    DuplicateClause {
        /// Class index of the duplicate.
        class: usize,
        /// Clause index of the duplicate.
        clause: usize,
    },
    /// A literal index was not a number.
    BadLiteralIndex {
        /// The offending token.
        token: String,
    },
    /// A literal index exceeded the feature count.
    LiteralOutOfRange {
        /// The out-of-range index.
        index: usize,
        /// The declared feature count.
        features: usize,
    },
    /// The `end` marker never appeared.
    MissingEnd,
}

impl ParseModelError {
    fn new(line: usize, kind: ParseModelErrorKind) -> Self {
        ParseModelError { line, kind }
    }

    /// 1-based line number where parsing failed (0 for stream-level errors).
    pub fn line(&self) -> usize {
        self.line
    }

    /// The typed failure cause.
    pub fn kind(&self) -> &ParseModelErrorKind {
        &self.kind
    }
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model parse error at line {}: ", self.line)?;
        match &self.kind {
            ParseModelErrorKind::MissingHeader => write!(f, "missing MATADOR-TM v1 header"),
            ParseModelErrorKind::UnexpectedEof { wanted } => {
                write!(f, "unexpected eof, wanted {wanted}")
            }
            ParseModelErrorKind::Io(e) => write!(f, "io error: {e}"),
            ParseModelErrorKind::MalformedHeader { key } => write!(f, "expected '{key} <n>'"),
            ParseModelErrorKind::BadToken { what } => write!(f, "missing or unparseable {what}"),
            ParseModelErrorKind::ExpectedKeyword { keyword } => {
                write!(f, "expected '{keyword}'")
            }
            ParseModelErrorKind::ZeroDimensions => write!(f, "zero-sized model dimensions"),
            ParseModelErrorKind::ClauseCountOverflow {
                classes,
                clauses_per_class,
            } => write!(
                f,
                "{classes} classes x {clauses_per_class} clauses per class overflows"
            ),
            ParseModelErrorKind::ExpectedClauseLine => {
                write!(f, "expected clause line starting with 'c'")
            }
            ParseModelErrorKind::ClauseOutOfRange { class, clause } => {
                write!(f, "clause coordinates ({class}, {clause}) out of range")
            }
            ParseModelErrorKind::DuplicateClause { class, clause } => {
                write!(f, "duplicate clause line for ({class}, {clause})")
            }
            ParseModelErrorKind::BadLiteralIndex { token } => {
                write!(f, "bad literal index '{token}'")
            }
            ParseModelErrorKind::LiteralOutOfRange { index, features } => {
                write!(
                    f,
                    "literal index {index} out of range (features {features})"
                )
            }
            ParseModelErrorKind::MissingEnd => write!(f, "missing end marker"),
        }
    }
}

impl std::error::Error for ParseModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            ParseModelErrorKind::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Writes `model` in the MATADOR-TM v1 text format.
///
/// Empty clauses are skipped (they are reconstructed on read), which keeps
/// files roughly proportional to the include count — i.e. tiny, thanks to
/// the sparsity the paper leans on.
///
/// # Errors
///
/// Propagates I/O errors from `w`. A `&mut Vec<u8>` or `&mut` of any other
/// writer can be passed (writers are taken by value per `C-RW-VALUE`).
pub fn write_model<W: Write>(model: &TrainedModel, mut w: W) -> std::io::Result<()> {
    writeln!(w, "MATADOR-TM v1")?;
    writeln!(w, "features {}", model.num_features())?;
    writeln!(w, "classes {}", model.num_classes())?;
    writeln!(w, "clauses_per_class {}", model.clauses_per_class())?;
    for (class, j, mask) in model.iter_clauses() {
        if mask.num_includes() == 0 {
            continue;
        }
        write!(w, "c {class} {j} pos ")?;
        write_indices(&mut w, &mask.pos)?;
        write!(w, " neg ")?;
        write_indices(&mut w, &mask.neg)?;
        writeln!(w)?;
    }
    writeln!(w, "end")?;
    Ok(())
}

fn write_indices<W: Write>(w: &mut W, bits: &BitVec) -> std::io::Result<()> {
    if bits.count_ones() == 0 {
        return write!(w, "-");
    }
    let mut first = true;
    for i in bits.iter_ones() {
        if !first {
            write!(w, ",")?;
        }
        write!(w, "{i}")?;
        first = false;
    }
    Ok(())
}

/// Reads a model written by [`write_model`] (or produced by an external
/// trainer following the same format).
///
/// # Errors
///
/// Returns [`ParseModelError`] on malformed headers, out-of-range indices,
/// duplicate clause lines or a missing `end` marker.
pub fn read_model<R: BufRead>(r: R) -> Result<TrainedModel, ParseModelError> {
    let mut lines = r.lines().enumerate();
    let mut next_line = |expect: &str| -> Result<(usize, String), ParseModelError> {
        match lines.next() {
            Some((i, Ok(l))) => Ok((i + 1, l)),
            Some((i, Err(e))) => Err(ParseModelError::new(i + 1, ParseModelErrorKind::Io(e))),
            None => Err(ParseModelError::new(
                0,
                ParseModelErrorKind::UnexpectedEof {
                    wanted: expect.to_string(),
                },
            )),
        }
    };

    let (ln, magic) = next_line("magic header")?;
    if magic.trim() != "MATADOR-TM v1" {
        return Err(ParseModelError::new(ln, ParseModelErrorKind::MissingHeader));
    }
    let features = parse_header_line(next_line("features")?, "features")?;
    let classes = parse_header_line(next_line("classes")?, "classes")?;
    let clauses_per_class =
        parse_header_line(next_line("clauses_per_class")?, "clauses_per_class")?;
    if features == 0 || classes == 0 || clauses_per_class == 0 {
        return Err(ParseModelError::new(0, ParseModelErrorKind::ZeroDimensions));
    }

    let clauses = classes.checked_mul(clauses_per_class).ok_or_else(|| {
        ParseModelError::new(
            0,
            ParseModelErrorKind::ClauseCountOverflow {
                classes,
                clauses_per_class,
            },
        )
    })?;
    let mut masks = vec![IncludeMask::empty(features); clauses];
    let mut seen = vec![false; masks.len()];
    let mut ended = false;
    for (i, line) in lines {
        let ln = i + 1;
        let line = line.map_err(|e| ParseModelError::new(ln, ParseModelErrorKind::Io(e)))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "end" {
            ended = true;
            break;
        }
        let mut parts = line.split_whitespace();
        if parts.next() != Some("c") {
            return Err(ParseModelError::new(
                ln,
                ParseModelErrorKind::ExpectedClauseLine,
            ));
        }
        let class: usize = parse_tok(&mut parts, ln, "class index")?;
        let j: usize = parse_tok(&mut parts, ln, "clause index")?;
        if class >= classes || j >= clauses_per_class {
            return Err(ParseModelError::new(
                ln,
                ParseModelErrorKind::ClauseOutOfRange { class, clause: j },
            ));
        }
        let idx = class * clauses_per_class + j;
        if seen[idx] {
            return Err(ParseModelError::new(
                ln,
                ParseModelErrorKind::DuplicateClause { class, clause: j },
            ));
        }
        seen[idx] = true;
        expect_tok(&mut parts, ln, "pos")?;
        let pos = parse_index_list(&mut parts, ln, features)?;
        expect_tok(&mut parts, ln, "neg")?;
        let neg = parse_index_list(&mut parts, ln, features)?;
        masks[idx] = IncludeMask { pos, neg };
    }
    if !ended {
        return Err(ParseModelError::new(0, ParseModelErrorKind::MissingEnd));
    }
    Ok(TrainedModel::from_masks(
        features,
        classes,
        clauses_per_class,
        masks,
    ))
}

fn parse_header_line((ln, line): (usize, String), key: &str) -> Result<usize, ParseModelError> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some(key) {
        return Err(ParseModelError::new(
            ln,
            ParseModelErrorKind::MalformedHeader {
                key: key.to_string(),
            },
        ));
    }
    parse_tok(&mut parts, ln, key)
}

fn parse_tok<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    ln: usize,
    what: &str,
) -> Result<T, ParseModelError> {
    parts
        .next()
        .ok_or_else(|| {
            ParseModelError::new(
                ln,
                ParseModelErrorKind::BadToken {
                    what: what.to_string(),
                },
            )
        })?
        .parse()
        .map_err(|_| {
            ParseModelError::new(
                ln,
                ParseModelErrorKind::BadToken {
                    what: what.to_string(),
                },
            )
        })
}

fn expect_tok<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    ln: usize,
    tok: &str,
) -> Result<(), ParseModelError> {
    if parts.next() == Some(tok) {
        Ok(())
    } else {
        Err(ParseModelError::new(
            ln,
            ParseModelErrorKind::ExpectedKeyword {
                keyword: tok.to_string(),
            },
        ))
    }
}

fn parse_index_list<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    ln: usize,
    features: usize,
) -> Result<BitVec, ParseModelError> {
    let tok = parts.next().ok_or_else(|| {
        ParseModelError::new(
            ln,
            ParseModelErrorKind::BadToken {
                what: "literal list".to_string(),
            },
        )
    })?;
    let mut bits = BitVec::zeros(features);
    if tok == "-" {
        return Ok(bits);
    }
    for piece in tok.split(',') {
        let i: usize = piece.parse().map_err(|_| {
            ParseModelError::new(
                ln,
                ParseModelErrorKind::BadLiteralIndex {
                    token: piece.to_string(),
                },
            )
        })?;
        if i >= features {
            return Err(ParseModelError::new(
                ln,
                ParseModelErrorKind::LiteralOutOfRange { index: i, features },
            ));
        }
        bits.set(i, true);
    }
    Ok(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainedModel;

    fn sample_model() -> TrainedModel {
        let f = 6;
        let mk = |pos: &[usize], neg: &[usize]| IncludeMask {
            pos: BitVec::from_indices(f, pos),
            neg: BitVec::from_indices(f, neg),
        };
        TrainedModel::from_masks(
            f,
            2,
            2,
            vec![
                mk(&[0, 5], &[2]),
                mk(&[], &[]),
                mk(&[3], &[0, 1]),
                mk(&[2], &[]),
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_model() {
        let model = sample_model();
        let mut buf = Vec::new();
        write_model(&model, &mut buf).expect("write");
        let parsed = read_model(buf.as_slice()).expect("parse");
        assert_eq!(parsed, model);
    }

    #[test]
    fn empty_clauses_are_omitted_but_reconstructed() {
        let model = sample_model();
        let mut buf = Vec::new();
        write_model(&model, &mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().filter(|l| l.starts_with("c ")).count(), 3);
        let parsed = read_model(text.as_bytes()).expect("parse");
        assert_eq!(parsed.clause(0, 1).num_includes(), 0);
    }

    #[test]
    fn rejects_missing_header() {
        let err = read_model("bogus\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn rejects_out_of_range_literal() {
        let text =
            "MATADOR-TM v1\nfeatures 4\nclasses 2\nclauses_per_class 2\nc 0 0 pos 9 neg -\nend\n";
        let err = read_model(text.as_bytes()).unwrap_err();
        assert_eq!(err.line(), 5);
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_duplicate_clause() {
        let text = "MATADOR-TM v1\nfeatures 4\nclasses 2\nclauses_per_class 2\nc 0 0 pos 1 neg -\nc 0 0 pos 2 neg -\nend\n";
        let err = read_model(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn rejects_missing_end() {
        let text = "MATADOR-TM v1\nfeatures 4\nclasses 2\nclauses_per_class 2\n";
        let err = read_model(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing end"));
    }

    #[test]
    fn tolerates_comments_and_blank_lines() {
        let text = "MATADOR-TM v1\nfeatures 4\nclasses 2\nclauses_per_class 2\n\n# external trainer note\nc 1 1 pos 0 neg 3\nend\n";
        let model = read_model(text.as_bytes()).expect("parse");
        assert_eq!(model.clause(1, 1).num_includes(), 2);
    }

    #[test]
    fn rejects_a_clause_count_that_overflows() {
        // 2^32 × 2^32 wraps to 0 in an unchecked 64-bit product.
        let text = "MATADOR-TM v1\nfeatures 1\nclasses 4294967296\n\
                    clauses_per_class 4294967296\nend\n";
        let err = read_model(text.as_bytes()).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                ParseModelErrorKind::ClauseCountOverflow {
                    classes: 4_294_967_296,
                    clauses_per_class: 4_294_967_296,
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_clause_coordinates() {
        let text =
            "MATADOR-TM v1\nfeatures 4\nclasses 2\nclauses_per_class 2\nc 5 0 pos 1 neg -\nend\n";
        assert!(read_model(text.as_bytes()).is_err());
    }
}
