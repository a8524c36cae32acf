//! The retired line scanner's sanitizer, preserved as a *test oracle*.
//!
//! `cargo xtask lint` never runs this code. `tests/lexer_corpus.rs` pins the
//! new lexer's string/comment stripping against it over the whole
//! workspace corpus and a proptest grammar.
//!
//! The code below is the legacy sanitizer verbatim. Do not "improve" it:
//! its value is being exactly as blind as it used to be.

/// A line split into sanitized code (strings/chars blanked) and the body
/// of its `//` comment, if any.
#[derive(Debug)]
pub struct SplitLine {
    /// The code portion with string/char literals blanked.
    pub code: String,
    /// The `//` comment text (including the slashes), if any.
    pub comment: String,
}

/// Sanitizes every line of a file the way the old scanner did: strings
/// blanked to `""`, chars to `' '`, `//` comments split off, `/* */`
/// comments removed with state carried across lines.
pub fn sanitize_file(text: &str) -> Vec<String> {
    let mut in_block_comment = false;
    text.lines()
        .map(|line| sanitize(line, &mut in_block_comment).code)
        .collect()
}

/// Blanks string/char literals, splits off `//` comments, and tracks
/// `/* */` block comments across lines — the legacy sanitizer, verbatim.
pub fn sanitize(line: &str, in_block_comment: &mut bool) -> SplitLine {
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if *in_block_comment {
            if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                *in_block_comment = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        let c = chars[i];
        match c {
            '/' if chars.get(i + 1) == Some(&'/') => {
                comment = chars[i..].iter().collect();
                break;
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                *in_block_comment = true;
                i += 2;
            }
            '"' => {
                // Skip the string literal's body (escapes handled; raw
                // strings degrade to best-effort).
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                code.push('"');
                code.push('"');
            }
            '\'' => {
                // Char literal vs lifetime: a literal closes within a few
                // chars; a lifetime never has a closing quote.
                let close = if chars.get(i + 1) == Some(&'\\') {
                    chars.get(i + 3) == Some(&'\'')
                } else {
                    chars.get(i + 2) == Some(&'\'')
                };
                if close {
                    let skip = if chars.get(i + 1) == Some(&'\\') {
                        4
                    } else {
                        3
                    };
                    code.push_str("' '");
                    i += skip;
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            _ => {
                code.push(c);
                i += 1;
            }
        }
    }
    SplitLine { code, comment }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_blanks_strings_and_chars() {
        let mut blk = false;
        let s = sanitize("let s = \"thread_rng\"; let c = 'x'; // note", &mut blk);
        assert_eq!(s.code, "let s = \"\"; let c = ' '; ");
        assert_eq!(s.comment, "// note");
    }
}
