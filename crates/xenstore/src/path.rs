//! XenStore paths.
//!
//! Paths are `/`-separated, absolute, and name nodes in the store tree,
//! e.g. `/local/domain/3/device/vif/0/state` or `/conduit/http_server/listen`.
//! Path components may contain ASCII letters, digits, `-`, `_`, `.`, `@`,
//! `:` and `+` (the character set accepted by the real store).
//!
//! A path is a value: build it once — [`Path::parse`] a text, or take
//! [`Path::child`] or [`Path::join`] of a path already built — and hand it
//! to every store operation that names it. Every operation accepts a
//! [`StorePath`]: text is parsed and validated on each call, a [`Path`] is
//! used as it stands.

use crate::error::{Error, Result};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Maximum length of a path accepted by the store, matching the classic
/// XenStore limit. Every constructor enforces it.
pub const MAX_PATH_LEN: usize = 3072;

/// An absolute, validated XenStore path.
///
/// A path is a prefix of one shared, immutable buffer holding canonical
/// text (`/a/b/c`: every component preceded by one slash, the root the
/// empty string). Building a path allocates that buffer once; cloning, and
/// taking [`Path::parent`] or any other ancestor, only shortens the prefix
/// and bumps a (non-atomic, [`Rc`]) reference count. Paths compare, sort and
/// hash component-wise, exactly as the list of their components would.
#[derive(Clone)]
pub struct Path {
    /// Canonical text of this path or of a descendant it was cut from.
    buf: Rc<str>,
    /// The path is `buf[..len]`; `len` is 0 or sits just before a `/` or at
    /// the end of `buf`.
    len: usize,
}

/// The path argument of a [`crate::XenStore`] operation.
///
/// Text (`&str`, `&String`) is parsed and validated by [`Path::parse`] on
/// every call, and fails the operation with the error that gives. A
/// [`Path`], owned or borrowed, was validated when it was built; the
/// operation takes it (or a clone of its [`Rc`]) and checks nothing.
pub trait StorePath {
    /// The path this argument names.
    fn into_path(self) -> Result<Path>;
}

impl StorePath for &str {
    fn into_path(self) -> Result<Path> {
        Path::parse(self)
    }
}

impl StorePath for &String {
    fn into_path(self) -> Result<Path> {
        Path::parse(self)
    }
}

impl StorePath for &Path {
    fn into_path(self) -> Result<Path> {
        Ok(self.clone())
    }
}

impl StorePath for Path {
    fn into_path(self) -> Result<Path> {
        Ok(self)
    }
}

thread_local! {
    /// Where [`Path::child`], [`Path::join`] and [`Path::domain_home`]
    /// assemble a path's text before copying it into the path's buffer.
    static SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
    /// What [`Path::root`] hands out.
    static ROOT: Path = Path::from_canonical("");
}

/// The path whose canonical text `write` puts into an empty buffer. The
/// buffer is scratch space kept between calls, so the path's own buffer is
/// the one allocation: a `String` built for the purpose and then copied into
/// an `Rc<str>` would be a second.
fn assemble<E>(
    write: impl FnOnce(&mut String) -> std::result::Result<(), E>,
) -> std::result::Result<Path, E> {
    SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
        Ok(mut text) => {
            text.clear();
            write(&mut text)?;
            Ok(Path::from_canonical(&text))
        }
        // Only a component whose `Display` builds a path itself lands here.
        Err(_) => {
            let mut text = String::new();
            write(&mut text)?;
            Ok(Path::from_canonical(&text))
        }
    })
}

/// Refuse a path of `len` bytes if it is over the store's limit.
fn check_length(len: usize) -> Result<()> {
    if len > MAX_PATH_LEN {
        return Err(Error::Invalid(format!(
            "path longer than {MAX_PATH_LEN} bytes"
        )));
    }
    Ok(())
}

/// Drop the empty components of `text`, a path's canonical text followed
/// by more components: doubled slashes become one, and a trailing slash
/// goes.
fn drop_empty_components(text: &mut String) {
    let mut after_slash = false;
    text.retain(|c| {
        let doubled = after_slash && c == '/';
        after_slash = c == '/';
        !doubled
    });
    if text.ends_with('/') {
        text.pop();
    }
}

/// The bytes a component may hold, by value.
const ALLOWED: [bool; 256] = {
    let mut allowed = [false; 256];
    let mut b: u8 = 0;
    loop {
        allowed[b as usize] =
            b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'@' | b':' | b'+');
        if b == u8::MAX {
            break allowed;
        }
        b += 1;
    }
};

/// The error of a component whose `Display` failed.
fn unformattable(_: fmt::Error) -> Error {
    Error::Invalid("path component failed to format".into())
}

/// `text` cut at every slash, like `str::split('/')` but a plain byte scan:
/// the standard splitter sets up a substring searcher, which costs more
/// than scanning the handful of bytes a component has, and every lookup in
/// the store walks a path's components.
struct Pieces<'a>(Option<&'a str>);

impl<'a> Iterator for Pieces<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.0?;
        let slash = rest.bytes().position(|b| b == b'/');
        self.0 = slash.map(|slash| &rest[slash + 1..]);
        Some(&rest[..slash.unwrap_or(rest.len())])
    }
}

/// Byte offsets of the slashes in `text`, in order.
fn slashes(text: &str) -> impl DoubleEndedIterator<Item = usize> + '_ {
    let bytes = text.bytes().enumerate();
    bytes.filter_map(|(at, b)| (b == b'/').then_some(at))
}

impl Path {
    /// The root path `/`: a clone of one kept per thread, since even an
    /// empty `Rc<str>` is an allocation, and every path built from its
    /// components is joined onto the root.
    pub fn root() -> Path {
        ROOT.with(Path::clone)
    }

    /// The path whose canonical text is `text`: empty, or validated
    /// components each preceded by one slash (as [`Path::text`] of a path
    /// followed by names read back out of the tree is).
    pub(crate) fn from_canonical(text: &str) -> Path {
        Path {
            buf: Rc::from(text),
            len: text.len(),
        }
    }

    /// This path's canonical text: empty for the root, else `/a/b/c`.
    pub(crate) fn text(&self) -> &str {
        &self.buf[..self.len]
    }

    /// The ancestor whose canonical text is the first `len` bytes, sharing
    /// this path's buffer.
    pub(crate) fn cut(&self, len: usize) -> Path {
        Path {
            buf: Rc::clone(&self.buf),
            len,
        }
    }

    /// True if the two paths are cut from one buffer.
    #[cfg(test)]
    pub(crate) fn shares_buffer_with(&self, other: &Path) -> bool {
        Rc::ptr_eq(&self.buf, &other.buf)
    }

    /// Parse and validate an absolute path string.
    pub fn parse(s: &str) -> Result<Path> {
        if s.is_empty() {
            return Err(Error::Invalid("empty path".into()));
        }
        check_length(s.len())?;
        if !s.starts_with('/') {
            return Err(Error::Invalid(format!("path must be absolute: {s}")));
        }
        // Doubled and trailing slashes are tolerated and dropped; text that
        // has none is already canonical and is copied as it stands.
        let mut canonical = true;
        for comp in Pieces(Some(&s[1..])) {
            if comp.is_empty() {
                canonical = false;
            } else {
                Self::validate_component(comp)?;
            }
        }
        if canonical {
            Ok(Path::from_canonical(s))
        } else {
            Path::root().join(s)
        }
    }

    fn validate_component(comp: &str) -> Result<()> {
        if comp.is_empty() {
            return Err(Error::Invalid("empty path component".into()));
        }
        if comp == "." || comp == ".." {
            return Err(Error::Invalid(format!(
                "relative component not allowed: {comp}"
            )));
        }
        // Every allowed character is one ASCII byte, so the bytes decide;
        // only the error message needs the offending character decoded.
        let allowed = |b: u8| ALLOWED[usize::from(b)];
        if comp.bytes().all(allowed) {
            return Ok(());
        }
        let c = comp
            .chars()
            .find(|&c| !u8::try_from(c).is_ok_and(allowed))
            .unwrap_or(char::REPLACEMENT_CHARACTER);
        Err(Error::Invalid(format!(
            "invalid character {c:?} in component {comp:?}"
        )))
    }

    /// The path components, in order from the root.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        // Canonical text opens every component with a slash; the root has
        // no text and so no components.
        Pieces(self.text().strip_prefix('/'))
    }

    /// Number of components (0 for the root).
    pub fn depth(&self) -> usize {
        slashes(self.text()).count()
    }

    /// True if this is the root path.
    pub fn is_root(&self) -> bool {
        self.len == 0
    }

    /// The last component, or `None` for the root.
    pub fn basename(&self) -> Option<&str> {
        let text = self.text();
        slashes(text).next_back().map(|slash| &text[slash + 1..])
    }

    /// The parent path, or `None` for the root.
    pub fn parent(&self) -> Option<Path> {
        slashes(self.text())
            .next_back()
            .map(|slash| self.cut(slash))
    }

    /// Append a single validated component: `component` as it displays,
    /// so a number needs no `String` of its own.
    pub fn child(&self, component: impl fmt::Display) -> Result<Path> {
        assemble(|text| {
            text.push_str(self.text());
            text.push('/');
            let start = text.len();
            write!(text, "{component}").map_err(unformattable)?;
            check_length(text.len())?;
            Self::validate_component(&text[start..])
        })
    }

    /// Join with a relative suffix that may contain multiple components
    /// (e.g. `"device/vif/0"`), as it displays. Empty components — doubled,
    /// leading or trailing slashes — are dropped, as [`Path::parse`] drops
    /// them.
    pub fn join(&self, suffix: impl fmt::Display) -> Result<Path> {
        assemble(|text| {
            text.push_str(self.text());
            let start = text.len();
            write!(text, "/{suffix}").map_err(unformattable)?;
            // Within the limit as written, the path is within it once its
            // empty components are dropped too, so one pass validates the
            // rest; over it, the limit is checked on what is left first, as
            // `parse` checks it before any component.
            if text.len() <= MAX_PATH_LEN {
                let mut canonical = true;
                for comp in Pieces(Some(&text[start + 1..])) {
                    if comp.is_empty() {
                        canonical = false;
                    } else {
                        Self::validate_component(comp)?;
                    }
                }
                if !canonical {
                    drop_empty_components(text);
                }
                return Ok(());
            }
            drop_empty_components(text);
            check_length(text.len())?;
            match text.get(start + 1..) {
                Some(added) => Pieces(Some(added)).try_for_each(Self::validate_component),
                None => Ok(()),
            }
        })
    }

    /// True if `self` is `other` or an ancestor of `other`.
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        self.is_prefix_of_text(other.text())
    }

    /// [`Path::is_prefix_of`] the path whose canonical text is `theirs`.
    pub(crate) fn is_prefix_of_text(&self, theirs: &str) -> bool {
        let mine = self.text();
        theirs.starts_with(mine) && matches!(theirs.as_bytes().get(mine.len()), None | Some(b'/'))
    }

    /// The ancestor (or this path itself) that has `depth` components;
    /// this path if it has no more than that.
    pub fn ancestor(&self, depth: usize) -> Path {
        self.cut(slashes(self.text()).nth(depth).unwrap_or(self.len))
    }

    /// The conventional per-domain home directory, `/local/domain/<domid>`.
    #[expect(
        clippy::expect_used,
        reason = "writing a number into a String cannot fail"
    )]
    pub fn domain_home(domid: u32) -> Path {
        assemble(|text| write!(text, "/local/domain/{domid}")).expect("a String accepts any text")
    }

    /// This path's text, `/` for the root, as it displays.
    pub fn as_str(&self) -> &str {
        if self.is_root() {
            "/"
        } else {
            self.text()
        }
    }
}

impl PartialEq for Path {
    fn eq(&self, other: &Path) -> bool {
        self.text() == other.text()
    }
}

impl Eq for Path {}

impl PartialOrd for Path {
    fn partial_cmp(&self, other: &Path) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Component-wise, so a path sorts before its descendants and those before
/// its later siblings (`/a` < `/a/z` < `/a-b` < `/b`): the order a
/// depth-first walk of the sorted tree visits them in. Plain text order
/// would not do, because `-`, `+` and `.` sort before `/`.
impl Ord for Path {
    fn cmp(&self, other: &Path) -> Ordering {
        self.cmp_text(other.text())
    }
}

impl Path {
    /// How this path orders against the one whose canonical text is
    /// `theirs`, as [`Ord`] orders paths.
    pub(crate) fn cmp_text(&self, theirs: &str) -> Ordering {
        let (mine, theirs) = (self.text().as_bytes(), theirs.as_bytes());
        match mine.iter().zip(theirs).find(|(a, b)| a != b) {
            // Both texts agree up to here, so the differing bytes sit in
            // the same component; a slash means that side's component has
            // ended, which makes it a prefix of the other's and the lesser.
            Some((&b'/', _)) => Ordering::Less,
            Some((_, &b'/')) => Ordering::Greater,
            Some((a, b)) => a.cmp(b),
            None => mine.len().cmp(&theirs.len()),
        }
    }
}

/// Hashes as the list of components does.
impl Hash for Path {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.depth());
        for comp in self.components() {
            comp.hash(state);
        }
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Path")
            .field(&format_args!("{self}"))
            .finish()
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Path {
    type Err = Error;
    fn from_str(s: &str) -> Result<Path> {
        Path::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for p in [
            "/local",
            "/local/domain/3/device/vif/0/state",
            "/conduit/http_server/listen/conn1",
            "/tool/xenstored",
        ] {
            assert_eq!(Path::parse(p).unwrap().to_string(), p);
        }
        assert_eq!(Path::parse("/").unwrap().to_string(), "/");
        assert_eq!(Path::parse("/a//b/").unwrap().to_string(), "/a/b");
    }

    #[test]
    fn rejects_invalid_paths() {
        assert!(Path::parse("").is_err());
        assert!(Path::parse("relative/path").is_err());
        assert!(Path::parse("/has space").is_err());
        assert!(Path::parse("/has\ttab").is_err());
        assert!(Path::parse("/../etc").is_err());
        assert!(Path::parse("/a/./b").is_err());
        let long = format!("/{}", "x".repeat(MAX_PATH_LEN + 1));
        assert!(Path::parse(&long).is_err());
    }

    #[test]
    fn every_constructor_enforces_the_length_limit() {
        let base = Path::parse("/a").unwrap();
        for len in [MAX_PATH_LEN, MAX_PATH_LEN + 1] {
            // `/a/` and a name filling the rest.
            let name = "x".repeat(len - 3);
            let built = [
                Path::parse(&format!("/a/{name}")),
                base.child(&name),
                base.join(&name),
                Path::root().join(format_args!("a/{name}")),
                base.join(format_args!("/{name}/")),
            ];
            for path in built {
                if len <= MAX_PATH_LEN {
                    assert_eq!(path.unwrap().as_str().len(), len);
                } else {
                    assert_eq!(
                        path.unwrap_err(),
                        Error::Invalid(format!("path longer than {MAX_PATH_LEN} bytes"))
                    );
                }
            }
        }
        // A child of a path at the limit is over it, however short.
        let full = Path::parse(&format!("/{}", "x".repeat(MAX_PATH_LEN - 1))).unwrap();
        assert!(full.child("y").is_err());
        assert!(full.join("y").is_err());
        assert_eq!(full.join("/").unwrap(), full);
    }

    #[test]
    fn child_and_join_fail_as_parse_fails() {
        let base = Path::parse("/local/domain").unwrap();
        for name in ["bad name", ".", "..", "tab\tx", "\u{e9}", "a/b", ""] {
            let text = format!("/local/domain/{name}");
            match Path::parse(&text) {
                Ok(parsed) => assert_eq!(base.join(name).unwrap(), parsed, "{name:?}"),
                Err(e) => assert_eq!(base.join(name).unwrap_err(), e, "{name:?}"),
            }
            if !name.contains('/') && !name.is_empty() {
                assert_eq!(
                    base.child(name).map_err(|e| e.to_string()),
                    Path::parse(&text).map_err(|e| e.to_string())
                );
            }
        }
        assert_eq!(base.child(7).unwrap(), base.child("7").unwrap());
        // A component whose `Display` builds a path itself gets a buffer of
        // its own rather than the one being filled.
        struct Built;
        impl fmt::Display for Built {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(Path::root().child("inner").unwrap().basename().unwrap())
            }
        }
        assert_eq!(base.child(Built).unwrap().as_str(), "/local/domain/inner");
        assert_eq!(
            base.join(format_args!("{}/x", 7)).unwrap().as_str(),
            "/local/domain/7/x"
        );
        assert_eq!(Path::root().as_str(), "/");
    }

    #[test]
    fn accepts_xenstore_charset() {
        assert!(Path::parse("/local/domain/0/backend/vif/3/0/mac-addr").is_ok());
        assert!(Path::parse("/vm/uuid:1234-abcd").is_ok());
        assert!(Path::parse("/conduit/http_server@host").is_ok());
        assert!(Path::parse("/feature/x+y").is_ok());
    }

    #[test]
    fn parent_basename_depth() {
        let p = Path::parse("/local/domain/3").unwrap();
        assert_eq!(p.depth(), 3);
        assert_eq!(p.basename(), Some("3"));
        assert_eq!(p.parent().unwrap().to_string(), "/local/domain");
        assert_eq!(Path::root().parent(), None);
        assert_eq!(Path::root().basename(), None);
        assert!(Path::root().is_root());
        assert!(!p.is_root());
    }

    #[test]
    fn child_and_join() {
        let p = Path::parse("/local/domain").unwrap();
        assert_eq!(p.child("7").unwrap().to_string(), "/local/domain/7");
        assert!(p.child("bad name").is_err());
        assert_eq!(
            p.join("7/device/vif/0").unwrap().to_string(),
            "/local/domain/7/device/vif/0"
        );
        assert_eq!(p.join("").unwrap(), p);
    }

    #[test]
    fn prefix_and_ancestor() {
        let a = Path::parse("/local/domain").unwrap();
        let b = Path::parse("/local/domain/3/vchan").unwrap();
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
        assert!(Path::root().is_prefix_of(&a));
        let c = Path::parse("/conduit").unwrap();
        assert!(!a.is_prefix_of(&c));
    }

    #[test]
    fn ancestry_lists_all_prefixes() {
        let p = Path::parse("/a/b/c").unwrap();
        let anc: Vec<Path> = (0..=p.depth()).map(|d| p.ancestor(d)).collect();
        assert_eq!(anc.len(), 4);
        assert_eq!(anc[0], Path::root());
        assert_eq!(anc[1].to_string(), "/a");
        assert_eq!(anc[3].to_string(), "/a/b/c");
    }

    #[test]
    fn domain_home_convention() {
        assert_eq!(Path::domain_home(12).to_string(), "/local/domain/12");
    }

    #[test]
    fn from_str_impl() {
        let p: Path = "/local/domain/0".parse().unwrap();
        assert_eq!(p.depth(), 3);
        assert!("not-absolute".parse::<Path>().is_err());
    }

    /// What a `Path` was before it became one buffer: the list of its
    /// components, with the derived ordering and hash.
    fn model(path: &Path) -> Vec<String> {
        path.components().map(str::to_string).collect()
    }

    fn model_text(components: &[String]) -> String {
        match components {
            [] => "/".to_string(),
            _ => components.iter().map(|c| format!("/{c}")).collect(),
        }
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// Random paths over the whole component alphabet, short names and few
    /// of them so that prefixes, shared ancestors and equal paths are
    /// common. `-`, `+` and `.` sort before `/`, which is where comparing
    /// the text instead of the components would go wrong.
    fn sample(rng: &mut jitsu_sim::SimRng) -> Vec<Path> {
        const ALPHABET: &[u8] = b"ab-+._:@0Z";
        let mut paths = vec![Path::root()];
        for _ in 0..300 {
            let text: String = (0..rng.index(5))
                .map(|_| {
                    let name: String = (0..1 + rng.index(3))
                        .map(|_| ALPHABET[rng.index(ALPHABET.len())] as char)
                        .collect();
                    // `.` and `..` are not names.
                    format!("/{}", if name.starts_with('.') { "a" } else { &name })
                })
                .collect();
            paths.push(Path::parse(if text.is_empty() { "/" } else { &text }).unwrap());
        }
        paths
    }

    #[test]
    fn sorts_hashes_and_displays_as_the_component_list_did() {
        let mut rng = jitsu_sim::SimRng::seed_from_u64(0x9A78);
        let paths = sample(&mut rng);
        for a in &paths {
            assert_eq!(a.to_string(), model_text(&model(a)));
            assert_eq!(Path::parse(&a.to_string()).unwrap(), *a);
            assert_eq!(hash_of(a), hash_of(&model(a)));
            for b in &paths {
                assert_eq!(a.cmp(b), model(a).cmp(&model(b)), "{a} vs {b}");
                assert_eq!(a == b, model(a) == model(b));
            }
        }
        let mut sorted = paths.clone();
        sorted.sort();
        let mut by_model = paths.clone();
        by_model.sort_by_key(model);
        assert_eq!(sorted, by_model);
    }

    #[test]
    fn derived_paths_match_the_component_list_model() {
        let mut rng = jitsu_sim::SimRng::seed_from_u64(0x9A79);
        let paths = sample(&mut rng);
        for a in &paths {
            let parts = model(a);
            assert_eq!(a.depth(), parts.len());
            assert_eq!(a.is_root(), parts.is_empty());
            assert_eq!(a.basename(), parts.last().map(String::as_str));
            assert_eq!(
                a.parent().map(|p| model(&p)),
                parts.split_last().map(|(_, rest)| rest.to_vec())
            );
            for depth in 0..=parts.len() {
                assert_eq!(model(&a.ancestor(depth)), parts[..depth]);
            }
            assert_eq!(a.ancestor(parts.len() + 3), *a);
            let child = a.child("x-1").unwrap();
            assert_eq!(model(&child), [parts.clone(), vec!["x-1".into()]].concat());
            assert_eq!(child.parent().unwrap(), *a);
            assert_eq!(
                a.join("p//q/").unwrap(),
                a.child("p").unwrap().child("q").unwrap()
            );
            for b in &paths {
                let other = model(b);
                assert_eq!(a.is_prefix_of(b), other.starts_with(&parts), "{a} {b}");
            }
        }
    }

    #[test]
    fn ancestors_share_the_parsed_buffer() {
        let p = Path::parse("/local/domain/3/device/vif/0/state").unwrap();
        let before = Rc::strong_count(&p.buf);
        let derived = [p.clone(), p.parent().unwrap(), p.ancestor(2)];
        assert_eq!(Rc::strong_count(&p.buf), before + derived.len());
        assert!(derived.iter().all(|d| Rc::ptr_eq(&d.buf, &p.buf)));
        assert!((0..=p.depth()).all(|d| Rc::ptr_eq(&p.ancestor(d).buf, &p.buf)));
        assert!(p.child("").is_err(), "a component is never empty");
    }

    #[test]
    fn ordering_is_lexicographic_by_component() {
        let mut v = [
            Path::parse("/b").unwrap(),
            Path::parse("/a/z").unwrap(),
            Path::parse("/a").unwrap(),
        ];
        v.sort();
        assert_eq!(
            v.iter().map(|p| p.to_string()).collect::<Vec<_>>(),
            vec!["/a", "/a/z", "/b"]
        );
    }
}
