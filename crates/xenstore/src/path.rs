//! XenStore paths.
//!
//! Paths are `/`-separated, absolute, and name nodes in the store tree,
//! e.g. `/local/domain/3/device/vif/0/state` or `/conduit/http_server/listen`.
//! Path components may contain ASCII letters, digits, `-`, `_`, `.`, `@` and
//! `:` (the character set accepted by the real store).

use crate::error::{Error, Result};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Maximum length of a path accepted by the store, matching the classic
/// XenStore limit.
pub const MAX_PATH_LEN: usize = 3072;

/// An absolute, validated XenStore path.
///
/// A path is a prefix of one shared, immutable buffer holding canonical
/// text (`/a/b/c`: every component preceded by one slash, the root the
/// empty string). Parsing allocates that buffer once; cloning, and taking
/// [`Path::parent`] or any other ancestor, only shortens the prefix and
/// bumps a reference count. Paths compare, sort and hash component-wise,
/// exactly as the list of their components would.
#[derive(Clone)]
pub struct Path {
    /// Canonical text of this path or of a descendant it was cut from.
    buf: Arc<str>,
    /// The path is `buf[..len]`; `len` is 0 or sits just before a `/` or at
    /// the end of `buf`.
    len: usize,
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
    /// The root path `/`.
    pub fn root() -> Path {
        Path::from_canonical("")
    }

    /// The path whose canonical text is `text`: empty, or validated
    /// components each preceded by one slash (as [`Path::text`] of a path
    /// followed by names read back out of the tree is).
    pub(crate) fn from_canonical(text: &str) -> Path {
        Path {
            buf: Arc::from(text),
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
            buf: Arc::clone(&self.buf),
            len,
        }
    }

    /// True if the two paths are cut from one buffer.
    #[cfg(test)]
    pub(crate) fn shares_buffer_with(&self, other: &Path) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Parse and validate an absolute path string.
    pub fn parse(s: &str) -> Result<Path> {
        if s.is_empty() {
            return Err(Error::Invalid("empty path".into()));
        }
        if s.len() > MAX_PATH_LEN {
            return Err(Error::Invalid(format!(
                "path longer than {MAX_PATH_LEN} bytes"
            )));
        }
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
        let allowed = |b: u8| {
            b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'@' | b':' | b'+')
        };
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

    /// Append a single validated component.
    pub fn child(&self, component: &str) -> Result<Path> {
        Self::validate_component(component)?;
        Ok(Path::from_canonical(
            &[self.text(), "/", component].concat(),
        ))
    }

    /// Join with a relative suffix that may contain multiple components
    /// (e.g. `"device/vif/0"`).
    pub fn join(&self, suffix: &str) -> Result<Path> {
        let mut text = String::with_capacity(self.len + 1 + suffix.len());
        text.push_str(self.text());
        for comp in Pieces(Some(suffix)) {
            if comp.is_empty() {
                continue;
            }
            Self::validate_component(comp)?;
            text.push('/');
            text.push_str(comp);
        }
        Ok(Path::from_canonical(&text))
    }

    /// True if `self` is `other` or an ancestor of `other`.
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        let (mine, theirs) = (self.text(), other.text());
        theirs.starts_with(mine) && matches!(theirs.as_bytes().get(mine.len()), None | Some(b'/'))
    }

    /// True if `self` is a strict ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &Path) -> bool {
        self.len < other.len && self.is_prefix_of(other)
    }

    /// The ancestor (or this path itself) that has `depth` components;
    /// this path if it has no more than that.
    pub fn ancestor(&self, depth: usize) -> Path {
        self.cut(slashes(self.text()).nth(depth).unwrap_or(self.len))
    }

    /// This path and all its ancestors, from the root down to the path
    /// itself.
    pub fn ancestry(&self) -> Vec<Path> {
        let mut out: Vec<Path> = slashes(self.text()).map(|at| self.cut(at)).collect();
        out.push(self.clone());
        out
    }

    /// The first component, or `None` for the root — used by the Jitsu
    /// transaction engine to partition conflicts by top-level directory.
    pub fn top_level(&self) -> Option<&str> {
        self.components().next()
    }

    /// The common-root prefix of two paths: the longest shared ancestry.
    pub fn common_prefix(&self, other: &Path) -> Path {
        let shared: usize = self
            .components()
            .zip(other.components())
            .take_while(|(a, b)| a == b)
            .map(|(a, _)| 1 + a.len())
            .sum();
        self.cut(shared)
    }

    /// The conventional per-domain home directory, `/local/domain/<domid>`.
    pub fn domain_home(domid: u32) -> Path {
        Path::from_canonical(&format!("/local/domain/{domid}"))
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
        let (mine, theirs) = (self.text().as_bytes(), other.text().as_bytes());
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
        f.write_str(if self.is_root() { "/" } else { self.text() })
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
        assert!(a.is_ancestor_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
        assert!(!a.is_ancestor_of(&a));
        assert!(Path::root().is_prefix_of(&a));
        let c = Path::parse("/conduit").unwrap();
        assert!(!a.is_prefix_of(&c));
    }

    #[test]
    fn ancestry_lists_all_prefixes() {
        let p = Path::parse("/a/b/c").unwrap();
        let anc = p.ancestry();
        assert_eq!(anc.len(), 4);
        assert_eq!(anc[0], Path::root());
        assert_eq!(anc[1].to_string(), "/a");
        assert_eq!(anc[3].to_string(), "/a/b/c");
    }

    #[test]
    fn top_level_and_common_prefix() {
        let a = Path::parse("/local/domain/3/vchan").unwrap();
        let b = Path::parse("/local/domain/7/vchan").unwrap();
        assert_eq!(a.top_level(), Some("local"));
        assert_eq!(Path::root().top_level(), None);
        assert_eq!(a.common_prefix(&b).to_string(), "/local/domain");
        let c = Path::parse("/conduit/x").unwrap();
        assert_eq!(a.common_prefix(&c), Path::root());
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
            assert_eq!(a.top_level(), parts.first().map(String::as_str));
            assert_eq!(
                a.parent().map(|p| model(&p)),
                parts.split_last().map(|(_, rest)| rest.to_vec())
            );
            let ancestry = a.ancestry();
            assert_eq!(ancestry.len(), parts.len() + 1);
            for (depth, ancestor) in ancestry.iter().enumerate() {
                assert_eq!(model(ancestor), parts[..depth]);
                assert_eq!(a.ancestor(depth), *ancestor);
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
                assert_eq!(
                    a.is_ancestor_of(b),
                    other.starts_with(&parts) && other.len() > parts.len()
                );
                let shared = parts.iter().zip(&other).take_while(|(x, y)| x == y);
                assert_eq!(model(&a.common_prefix(b)).len(), shared.count());
                assert!(a.common_prefix(b).is_prefix_of(a));
                assert!(a.common_prefix(b).is_prefix_of(b));
            }
        }
    }

    #[test]
    fn ancestors_share_the_parsed_buffer() {
        let p = Path::parse("/local/domain/3/device/vif/0/state").unwrap();
        let before = Arc::strong_count(&p.buf);
        let derived = [p.clone(), p.parent().unwrap(), p.ancestor(2)];
        assert_eq!(Arc::strong_count(&p.buf), before + derived.len());
        assert!(derived.iter().all(|d| Arc::ptr_eq(&d.buf, &p.buf)));
        assert_eq!(p.ancestry().len(), 8);
        assert!(p.ancestry().iter().all(|a| Arc::ptr_eq(&a.buf, &p.buf)));
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
