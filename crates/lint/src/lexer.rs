//! A minimal, dependency-free Rust lexer.
//!
//! This is *not* a parser: it produces a flat token stream (identifiers,
//! punctuation, literals) with line numbers, plus the comment text attached
//! to every source line. That is exactly enough for the contract checks in
//! [`crate::passes`] — which match short token sequences such as
//! `Ordering :: SeqCst` or `static mut` and look for justification comments
//! on adjacent lines — while staying robust against `unsafe` appearing in
//! strings, doc prose, or `#[doc = "..."]` attributes.
//!
//! Handled faithfully: line comments, nested block comments, string / raw
//! string / byte string literals, char literals vs. lifetimes, raw
//! identifiers, numeric literals (opaquely). Known false negatives are
//! documented on [`crate`].

/// The coarse kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An identifier or keyword (`unsafe`, `Ordering`, `graph_write`, ...).
    Ident,
    /// A single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// A string/char/numeric literal; contents are irrelevant to the passes.
    Literal,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: Kind,
    /// The token text (empty for [`Kind::Literal`]; literal bodies never
    /// participate in any pass).
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

impl Token {
    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Kind::Punct(c)
    }
}

/// The lexed view of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Token stream in source order.
    pub tokens: Vec<Token>,
    /// Concatenated comment text per 1-based line. A block comment spanning
    /// lines `a..=b` contributes its full text to line `b` (its end line)
    /// and marks lines `a..b` as comment lines with empty text.
    pub comment_text: Vec<Option<String>>,
    /// `code[l]` is true if line `l` (1-based) holds at least one token.
    pub code: Vec<bool>,
    /// `attr[l]` is true if line `l` holds only attribute tokens
    /// (`#[...]` / `#![...]`), possibly plus comments.
    pub attr: Vec<bool>,
    /// Number of lines in the file.
    pub lines: u32,
}

impl Lexed {
    /// Comment text recorded on 1-based line `l`, if any.
    pub fn comment_on(&self, l: u32) -> Option<&str> {
        self.comment_text.get(l as usize).and_then(|c| c.as_deref())
    }

    /// True if line `l` contains code tokens.
    pub fn is_code_line(&self, l: u32) -> bool {
        self.code.get(l as usize).copied().unwrap_or(false)
    }

    /// True if line `l` is attribute-only (no non-attribute code).
    fn is_attr_line(&self, l: u32) -> bool {
        self.attr.get(l as usize).copied().unwrap_or(false)
    }

    /// True if line `l` carries comment text but no code tokens.
    fn is_comment_only_line(&self, l: u32) -> bool {
        self.comment_text
            .get(l as usize)
            .map(|c| c.is_some())
            .unwrap_or(false)
            && !self.is_code_line(l)
    }

    /// The justification window for a site on line `l`: the comment on the
    /// line itself plus the contiguous block of comment-only lines
    /// immediately above it (attribute-only lines are transparent, blank
    /// lines are not — "immediately preceded" means adjacent). Returns true
    /// if any of those comments contain one of `needles`.
    pub fn justified(&self, l: u32, needles: &[&str]) -> bool {
        let hit = |text: &str| needles.iter().any(|n| text.contains(n));
        if let Some(c) = self.comment_on(l) {
            if hit(c) {
                return true;
            }
        }
        let mut p = l.saturating_sub(1);
        while p >= 1 && self.is_attr_line(p) {
            p -= 1;
        }
        while p >= 1 && self.is_comment_only_line(p) {
            if let Some(c) = self.comment_on(p) {
                if hit(c) {
                    return true;
                }
            }
            p -= 1;
        }
        false
    }

    /// The first code line strictly after line `l` (for own-line pragmas).
    pub fn next_code_line(&self, l: u32) -> Option<u32> {
        (l + 1..=self.lines).find(|&n| self.is_code_line(n))
    }
}

/// Lex `src` into tokens + per-line comment/code/attribute maps.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let nlines = src.lines().count().max(1) as u32;
    let mut out = Lexed {
        tokens: Vec::new(),
        comment_text: vec![None; nlines as usize + 2],
        code: vec![false; nlines as usize + 2],
        attr: vec![false; nlines as usize + 2],
        lines: nlines,
    };
    let mut line: u32 = 1;
    let mut i = 0usize;

    let add_comment = |out: &mut Lexed, l: u32, text: &str| {
        let slot = &mut out.comment_text[l as usize];
        match slot {
            Some(s) => {
                s.push(' ');
                s.push_str(text);
            }
            None => *slot = Some(text.to_string()),
        }
    };

    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                // Line comment (incl. doc comments): capture until newline.
                let start = i;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                add_comment(&mut out, line, &text);
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                // Block comment; Rust block comments nest.
                let first = line;
                let start = i;
                i += 2;
                let mut depth = 1;
                while i < n && depth > 0 {
                    if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let text: String = b[start..i.min(n)].iter().collect();
                // Interior lines count as comment lines (empty text); the
                // full text lands on the end line so upward walks find it.
                for l in first..line {
                    if out.comment_text[l as usize].is_none() {
                        out.comment_text[l as usize] = Some(String::new());
                    }
                }
                add_comment(&mut out, line, &text);
            }
            '"' => {
                i = skip_string(&b, i, &mut line);
                out.tokens.push(Token {
                    kind: Kind::Literal,
                    text: String::new(),
                    line,
                });
            }
            'r' | 'b' if starts_string(&b, i) => {
                let l0 = line;
                i = skip_prefixed_string(&b, i, &mut line);
                out.tokens.push(Token {
                    kind: Kind::Literal,
                    text: String::new(),
                    line: l0,
                });
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'x'`, `'\n'`).
                if i + 1 < n && (b[i + 1].is_alphanumeric() || b[i + 1] == '_') && b[i + 1] != '\\'
                {
                    let mut j = i + 2;
                    while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                        j += 1;
                    }
                    if j < n && b[j] == '\'' && j == i + 2 {
                        // Single alnum between quotes: char literal 'x'.
                        i = j + 1;
                        out.tokens.push(Token {
                            kind: Kind::Literal,
                            text: String::new(),
                            line,
                        });
                    } else {
                        // Lifetime: no closing quote consumed.
                        i = j;
                        out.tokens.push(Token {
                            kind: Kind::Literal,
                            text: String::new(),
                            line,
                        });
                    }
                } else {
                    // Escaped or punctuation char literal: scan to close.
                    let mut j = i + 1;
                    while j < n {
                        if b[j] == '\\' {
                            j += 2;
                        } else if b[j] == '\'' {
                            j += 1;
                            break;
                        } else {
                            j += 1;
                        }
                    }
                    i = j;
                    out.tokens.push(Token {
                        kind: Kind::Literal,
                        text: String::new(),
                        line,
                    });
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: Kind::Ident,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                // Numeric literal, consumed opaquely (suffixes, hex, floats).
                while i < n
                    && (b[i].is_alphanumeric()
                        || b[i] == '_'
                        || (b[i] == '.' && i + 1 < n && b[i + 1].is_ascii_digit()))
                {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: Kind::Literal,
                    text: String::new(),
                    line,
                });
            }
            c => {
                out.tokens.push(Token {
                    kind: Kind::Punct(c),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
        }
    }

    for t in &out.tokens {
        out.code[t.line as usize] = true;
    }
    mark_attr_lines(&mut out);
    out
}

/// Does `r` / `b` at `i` begin a (raw/byte) string or raw identifier?
fn starts_string(b: &[char], i: usize) -> bool {
    let n = b.len();
    let mut j = i;
    // br, rb are not both valid, but accepting either is harmless here.
    while j < n && (b[j] == 'r' || b[j] == 'b') && j - i < 2 {
        j += 1;
    }
    let mut hashes = j;
    while hashes < n && b[hashes] == '#' {
        hashes += 1;
    }
    // `r#ident` (raw identifier) has no quote after the hashes.
    hashes < n && b[hashes] == '"' && (hashes > j || j > i)
}

/// Skip a plain `"..."` string starting at the quote; returns index past it.
fn skip_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = b.len();
    i += 1;
    while i < n {
        match b[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skip `r"..."`, `r#"..."#`, `b"..."`, `br##"..."##` from the prefix.
fn skip_prefixed_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = b.len();
    let mut raw = false;
    while i < n && (b[i] == 'r' || b[i] == 'b') {
        raw |= b[i] == 'r';
        i += 1;
    }
    let mut hashes = 0;
    while i < n && b[i] == '#' {
        hashes += 1;
        i += 1;
    }
    debug_assert!(i < n && b[i] == '"');
    if !raw && hashes == 0 {
        return skip_string(b, i, line);
    }
    i += 1;
    while i < n {
        if b[i] == '\n' {
            *line += 1;
            i += 1;
        } else if b[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0;
            while j < n && b[j] == '#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Mark lines whose tokens are all part of `#[...]` / `#![...]` attributes.
fn mark_attr_lines(out: &mut Lexed) {
    // Collect the line spans of every attribute by bracket matching.
    let toks = &out.tokens;
    let mut attr_tok = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_punct('!') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('[') {
                let mut depth = 0i32;
                let start = i;
                while j < toks.len() {
                    if toks[j].is_punct('[') {
                        depth += 1;
                    } else if toks[j].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                for flag in attr_tok
                    .iter_mut()
                    .take(j.min(toks.len() - 1) + 1)
                    .skip(start)
                {
                    *flag = true;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    // A line is attribute-only if every token on it belongs to an attribute.
    let mut all_attr = vec![true; out.lines as usize + 2];
    let mut has_tok = vec![false; out.lines as usize + 2];
    for (t, &is_attr) in toks.iter().zip(attr_tok.iter()) {
        has_tok[t.line as usize] = true;
        if !is_attr {
            all_attr[t.line as usize] = false;
        }
    }
    for l in 1..=out.lines as usize {
        out.attr[l] = has_tok[l] && all_attr[l];
    }
}

/// Token indices covered by `#[cfg(test)] mod ... { ... }` regions.
///
/// Returns a per-token flag: true for tokens inside a test-only module.
/// Only brace-bodied inline modules are tracked; `#[cfg(test)]` on items
/// other than `mod` is not treated as a region (the checks stay strict
/// there, which errs on the side of more auditing, not less).
pub fn cfg_test_mask(lx: &Lexed) -> Vec<bool> {
    let toks = &lx.tokens;
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            // Scan the attribute body for `cfg` ... `test`.
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut saw_cfg = false;
            let mut saw_test = false;
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[j].is_ident("cfg") {
                    saw_cfg = true;
                } else if toks[j].is_ident("test") {
                    saw_test = true;
                }
                j += 1;
            }
            if saw_cfg && saw_test {
                // Skip any further stacked attributes, then expect `mod`.
                let mut k = j + 1;
                while k + 1 < toks.len() && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
                    let mut d = 0i32;
                    let mut m = k + 1;
                    while m < toks.len() {
                        if toks[m].is_punct('[') {
                            d += 1;
                        } else if toks[m].is_punct(']') {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        m += 1;
                    }
                    k = m + 1;
                }
                if k < toks.len() && toks[k].is_ident("mod") {
                    // `mod name {` — find the brace and match it.
                    let mut m = k + 1;
                    while m < toks.len() && !toks[m].is_punct('{') && !toks[m].is_punct(';') {
                        m += 1;
                    }
                    if m < toks.len() && toks[m].is_punct('{') {
                        let mut d = 0i32;
                        let start = m;
                        while m < toks.len() {
                            if toks[m].is_punct('{') {
                                d += 1;
                            } else if toks[m].is_punct('}') {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            m += 1;
                        }
                        for flag in mask.iter_mut().take(m.min(toks.len() - 1) + 1).skip(start) {
                            *flag = true;
                        }
                        i = m + 1;
                        continue;
                    }
                }
                i = k;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}
