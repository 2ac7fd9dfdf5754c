//! The JSON helpers of the service's on-disk result store (the workspace
//! is std-only): `put_*` writers that append to a `String`, and a
//! [`Cursor`] that reads back exactly what they wrote — booleans,
//! **unsigned integers only**, strings, arrays and objects, with no
//! whitespace and no value tree. Both sides share one separator rule: a
//! comma precedes a member unless the member opens its object or array.

use std::fmt::Write as _;

/// Appends `n` in decimal, through a stack buffer of digits.
pub(crate) fn put_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub(crate) fn put_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends the comma before a member, unless the member opens its object
/// or array.
pub(crate) fn put_sep(out: &mut String) {
    if !out.ends_with(['{', '[']) {
        out.push(',');
    }
}

/// Appends the separator and `"name":` of one object member.
pub(crate) fn put_name(out: &mut String, name: &str) {
    put_sep(out);
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
}

/// Appends the array `[item,item,…]`, writing each item with `put`.
pub(crate) fn put_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut put: impl FnMut(&mut String, T),
) {
    out.push('[');
    for item in items {
        put_sep(out);
        put(out, item);
    }
    out.push(']');
}

/// A forward-only reader over one line in the writer's exact layout.
/// Every method returns `None` (or `false`) at the first byte that
/// differs from what the writer produces, so a corrupt line is rejected
/// and the reader never panics.
pub(crate) struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    /// Consumes `lit`, which must come next.
    pub(crate) fn lit(&mut self, lit: &str) -> Option<()> {
        let next = self.text[self.pos..].starts_with(lit);
        next.then(|| self.pos += lit.len())
    }

    /// The whole input is consumed.
    pub(crate) fn done(&self) -> Option<()> {
        (self.pos == self.text.len()).then_some(())
    }

    /// Consumes the comma before a member, unless the member opens its
    /// object or array.
    pub(crate) fn sep(&mut self) -> Option<()> {
        match self.text.as_bytes()[..self.pos].last() {
            Some(b'{' | b'[') => Some(()),
            _ => self.lit(","),
        }
    }

    /// Consumes the separator and `"name":` of one object member.
    pub(crate) fn name(&mut self, name: &str) -> Option<()> {
        self.sep()?;
        self.lit("\"")?;
        self.lit(name)?;
        self.lit("\":")
    }

    /// Consumes the separator and `"name":` of an optional member if it
    /// comes next, and nothing otherwise.
    pub(crate) fn has(&mut self, name: &str) -> bool {
        let at = self.pos;
        self.name(name).is_some() || {
            self.pos = at;
            false
        }
    }

    /// An unsigned decimal integer; signs, fractions, exponents, leading
    /// zeros and overflow are rejected.
    pub(crate) fn u64(&mut self) -> Option<u64> {
        let rest = &self.text.as_bytes()[self.pos..];
        let len = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        let bad_tail = matches!(rest.get(len), Some(b'.' | b'e' | b'E'));
        if len == 0 || (len > 1 && rest[0] == b'0') || bad_tail {
            return None;
        }
        let n = self.text[self.pos..self.pos + len].parse().ok()?;
        self.pos += len;
        Some(n)
    }

    /// A quoted string, unescaped. One without escapes is allocated at
    /// its exact length: a loaded store holds thousands of them.
    pub(crate) fn string(&mut self) -> Option<String> {
        self.lit("\"")?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let at = rest.find(['"', '\\'])?;
            self.pos += at + 1;
            if rest.as_bytes()[at] == b'"' && out.is_empty() {
                return Some(rest[..at].to_owned());
            }
            out.push_str(&rest[..at]);
            if rest.as_bytes()[at] == b'"' {
                return Some(out);
            }
            let esc = *self.text.as_bytes().get(self.pos)?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self.text.get(self.pos..self.pos + 4)?;
                    self.pos += 4;
                    char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                }
                _ => return None,
            });
        }
    }

    /// The array `[item,item,…]`, reading each item with `item`.
    pub(crate) fn list(&mut self, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.lit("[")?;
        while self.lit("]").is_none() {
            self.sep()?;
            item(self)?;
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(s: &str) -> Option<String> {
        let mut line = String::new();
        put_str(&mut line, s);
        let mut c = Cursor::new(&line);
        c.string().filter(|_| c.done().is_some())
    }

    #[test]
    fn escaped_strings_round_trip() {
        for s in ["", "qpsk 1/2 \"quoted\"\n", "tab\tback\\slash\r", "\u{1}"] {
            assert_eq!(round_trip(s).as_deref(), Some(s));
        }
        let mut line = String::new();
        put_list(&mut line, [0, u64::MAX, 7], put_u64);
        let (mut c, mut got) = (Cursor::new(&line), Vec::new());
        assert!(c.list(|c| c.u64().map(|n| got.push(n))).is_some());
        assert_eq!((c.done(), got), (Some(()), vec![0, u64::MAX, 7]));
    }

    #[test]
    fn rejects_floats_and_garbage() {
        for bad in ["1.5", "1e3", "-1", "", "01", "18446744073709551616"] {
            assert_eq!(Cursor::new(bad).u64(), None, "{bad:?}");
        }
        assert_eq!(Cursor::new("\"unterminated").string(), None);
        assert_eq!(Cursor::new("\"bad \\q escape\"").string(), None);
        assert_eq!(Cursor::new("[1,2").list(|c| c.u64().map(drop)), None);
        assert_eq!(Cursor::new("[,1]").list(|c| c.u64().map(drop)), None);
        let mut obj = Cursor::new("{\"a\":1}");
        let steps = (obj.lit("{"), obj.has("b"), obj.has("a"), obj.u64());
        assert_eq!(steps, (Some(()), false, true, Some(1)));
        assert_eq!(obj.done(), None, "the closing brace is left");
    }

    #[test]
    fn parses_unicode_strings() {
        assert_eq!(round_trip("λ → µ").as_deref(), Some("λ → µ"));
        assert_eq!(Cursor::new("\"\\u00e9\"").string().as_deref(), Some("é"));
    }
}
