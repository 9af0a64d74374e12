//! Per-node access control.
//!
//! Each node carries an ordered permission list. The first entry names the
//! node's *owner* and the default access for everyone else; subsequent
//! entries grant specific domains read and/or write access, mirroring the
//! real XenStore `perms` model. Dom0 is always privileged.
//!
//! Nearly every node in a store carries the owner entry and nothing else, so
//! [`Permissions`] holds that entry inline and allocates only for the
//! additional grants a few nodes have: creating a node, or cloning its
//! permissions, costs no allocation of their own.
//!
//! Jitsu extends this model for Conduit rendezvous (§3.2.3): a directory may
//! be marked **create-restricted**, meaning any domain may *create* new keys
//! inside it (so clients can enqueue connection requests), but each created
//! key is readable only by the directory owner and the creating domain —
//! analogous to setting the POSIX setgid and sticky bits on a shared spool
//! directory.

use std::fmt;

/// A Xen domain identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomId(pub u32);

impl DomId {
    /// The privileged control domain.
    pub const DOM0: DomId = DomId(0);

    /// True for dom0, which bypasses all permission checks.
    pub fn is_privileged(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for DomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

impl From<u32> for DomId {
    fn from(v: u32) -> DomId {
        DomId(v)
    }
}

/// The access level granted by one permission entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PermLevel {
    /// No access.
    None,
    /// Read-only access.
    Read,
    /// Write-only access.
    Write,
    /// Read and write access.
    ReadWrite,
}

impl PermLevel {
    /// True if this level allows reading.
    pub fn allows_read(self) -> bool {
        matches!(self, PermLevel::Read | PermLevel::ReadWrite)
    }

    /// True if this level allows writing.
    pub fn allows_write(self) -> bool {
        matches!(self, PermLevel::Write | PermLevel::ReadWrite)
    }

    /// The single-letter code used by the wire protocol (`n`, `r`, `w`, `b`).
    pub fn code(self) -> char {
        match self {
            PermLevel::None => 'n',
            PermLevel::Read => 'r',
            PermLevel::Write => 'w',
            PermLevel::ReadWrite => 'b',
        }
    }

    /// Parse a single-letter code.
    pub fn from_code(c: char) -> Option<PermLevel> {
        match c {
            'n' => Some(PermLevel::None),
            'r' => Some(PermLevel::Read),
            'w' => Some(PermLevel::Write),
            'b' => Some(PermLevel::ReadWrite),
            _ => None,
        }
    }
}

/// One permission entry: a domain and its granted level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Permission {
    /// The domain this entry applies to.
    pub dom: DomId,
    /// The granted level. For the first (owner) entry this is the *default*
    /// level for domains not otherwise listed.
    pub level: PermLevel,
}

/// The requested kind of access, used when checking permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read the value or list children.
    Read,
    /// Write the value, create children or delete.
    Write,
}

/// A node's full permission specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permissions {
    /// The first entry: the owner, and the default level for domains not
    /// otherwise listed.
    owner: Permission,
    /// The entries after the first, in the order they were granted. Empty,
    /// and then unallocated, on all but a few nodes.
    grants: Vec<Permission>,
    /// Jitsu extension: any domain may create direct children, but created
    /// keys default to being private to the creator and the owner.
    create_restricted: bool,
}

impl Permissions {
    /// Permissions owned by `owner`, default-deny for other domains.
    pub fn owned_by(owner: DomId) -> Permissions {
        Permissions::with_default(owner, PermLevel::None)
    }

    /// Permissions owned by `owner` with a given default level for others.
    pub fn with_default(owner: DomId, default: PermLevel) -> Permissions {
        Permissions {
            owner: Permission {
                dom: owner,
                level: default,
            },
            grants: Vec::new(),
            create_restricted: false,
        }
    }

    /// The owner of the node.
    pub fn owner(&self) -> DomId {
        self.owner.dom
    }

    /// The default level applied to unlisted domains.
    pub fn default_level(&self) -> PermLevel {
        self.owner.level
    }

    /// All entries, owner first.
    pub fn entries(&self) -> impl Iterator<Item = Permission> + '_ {
        std::iter::once(self.owner).chain(self.grants.iter().copied())
    }

    /// Grant `dom` the given level (replacing any previous grant).
    pub fn grant(&mut self, dom: DomId, level: PermLevel) {
        if dom == self.owner() {
            return; // the owner always has full access
        }
        if let Some(e) = self.grants.iter_mut().find(|e| e.dom == dom) {
            e.level = level;
        } else {
            self.grants.push(Permission { dom, level });
        }
    }

    /// Builder-style [`Permissions::grant`].
    pub fn granting(mut self, dom: DomId, level: PermLevel) -> Permissions {
        self.grant(dom, level);
        self
    }

    /// Mark this node as a create-restricted directory (Jitsu's Conduit
    /// `listen` directory extension).
    pub fn create_restricted(mut self) -> Permissions {
        self.create_restricted = true;
        self
    }

    /// True if this directory allows any domain to create children, with
    /// created children private to the creator and owner.
    pub fn is_create_restricted(&self) -> bool {
        self.create_restricted
    }

    /// The effective level for a domain.
    pub fn level_for(&self, dom: DomId) -> PermLevel {
        if dom == self.owner() {
            return PermLevel::ReadWrite;
        }
        self.grants
            .iter()
            .find(|e| e.dom == dom)
            .map_or(self.default_level(), |e| e.level)
    }

    /// Check whether `dom` may perform `access`. Dom0 is always allowed.
    pub fn check(&self, dom: DomId, access: Access) -> bool {
        if dom.is_privileged() {
            return true;
        }
        let level = self.level_for(dom);
        match access {
            Access::Read => level.allows_read(),
            Access::Write => level.allows_write(),
        }
    }

    /// The permissions a newly created child of a create-restricted
    /// directory should carry: owned by the directory owner, readable and
    /// writable by the creator, invisible to everyone else.
    pub fn restricted_child_perms(&self, creator: DomId) -> Permissions {
        Permissions::owned_by(self.owner()).granting(creator, PermLevel::ReadWrite)
    }

    /// Encode as the wire format used by `GET_PERMS`/`SET_PERMS`:
    /// `<code><domid>` entries joined by NULs, e.g. `n0\0r7`.
    pub fn to_wire(&self) -> String {
        self.entries()
            .map(|e| format!("{}{}", e.level.code(), e.dom.0))
            .collect::<Vec<_>>()
            .join("\0")
    }

    /// Decode the wire format.
    pub fn from_wire(s: &str) -> Option<Permissions> {
        let mut entries = s.split('\0').filter(|part| !part.is_empty()).map(|part| {
            let mut chars = part.chars();
            let level = PermLevel::from_code(chars.next()?)?;
            let dom: u32 = chars.as_str().parse().ok()?;
            Some(Permission {
                dom: DomId(dom),
                level,
            })
        });
        Some(Permissions {
            owner: entries.next()??,
            grants: entries.collect::<Option<Vec<_>>>()?,
            create_restricted: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dom0_is_privileged() {
        assert!(DomId::DOM0.is_privileged());
        assert!(!DomId(3).is_privileged());
        assert_eq!(DomId(3).to_string(), "dom3");
        assert_eq!(DomId::from(7u32), DomId(7));
    }

    #[test]
    fn perm_level_codes() {
        for l in [
            PermLevel::None,
            PermLevel::Read,
            PermLevel::Write,
            PermLevel::ReadWrite,
        ] {
            assert_eq!(PermLevel::from_code(l.code()), Some(l));
        }
        assert_eq!(PermLevel::from_code('x'), None);
        assert!(PermLevel::ReadWrite.allows_read());
        assert!(PermLevel::ReadWrite.allows_write());
        assert!(PermLevel::Read.allows_read());
        assert!(!PermLevel::Read.allows_write());
        assert!(!PermLevel::Write.allows_read());
        assert!(PermLevel::Write.allows_write());
        assert!(!PermLevel::None.allows_read());
    }

    #[test]
    fn owner_has_full_access() {
        let p = Permissions::owned_by(DomId(3));
        assert_eq!(p.owner(), DomId(3));
        assert!(p.check(DomId(3), Access::Read));
        assert!(p.check(DomId(3), Access::Write));
        assert_eq!(p.level_for(DomId(3)), PermLevel::ReadWrite);
    }

    #[test]
    fn others_get_default_level() {
        let p = Permissions::owned_by(DomId(3));
        assert!(!p.check(DomId(7), Access::Read));
        let open = Permissions::with_default(DomId(3), PermLevel::Read);
        assert!(open.check(DomId(7), Access::Read));
        assert!(!open.check(DomId(7), Access::Write));
        assert_eq!(open.default_level(), PermLevel::Read);
    }

    #[test]
    fn dom0_bypasses_checks() {
        let p = Permissions::owned_by(DomId(3));
        assert!(p.check(DomId::DOM0, Access::Read));
        assert!(p.check(DomId::DOM0, Access::Write));
    }

    #[test]
    fn grants_override_default() {
        let mut p = Permissions::owned_by(DomId(3));
        p.grant(DomId(7), PermLevel::Read);
        assert!(p.check(DomId(7), Access::Read));
        assert!(!p.check(DomId(7), Access::Write));
        p.grant(DomId(7), PermLevel::ReadWrite);
        assert!(p.check(DomId(7), Access::Write));
        assert_eq!(p.entries().count(), 2);
        // Granting to the owner is a no-op.
        p.grant(DomId(3), PermLevel::None);
        assert!(p.check(DomId(3), Access::Write));
    }

    #[test]
    fn create_restricted_children_are_private() {
        // The /conduit/http_server/listen directory: owned by the server
        // (dom 3), open for creation by anyone, created keys visible only to
        // the creator and the owner (§3.2.3).
        let listen = Permissions::owned_by(DomId(3)).create_restricted();
        assert!(listen.is_create_restricted());
        let child = listen.restricted_child_perms(DomId(7));
        assert_eq!(child.owner(), DomId(3));
        assert!(child.check(DomId(7), Access::Read));
        assert!(child.check(DomId(7), Access::Write));
        assert!(child.check(DomId(3), Access::Read));
        assert!(
            !child.check(DomId(9), Access::Read),
            "third parties must not observe the connection"
        );
    }

    #[test]
    fn wire_round_trip() {
        let p = Permissions::with_default(DomId(0), PermLevel::None)
            .granting(DomId(7), PermLevel::Read)
            .granting(DomId(3), PermLevel::ReadWrite);
        let wire = p.to_wire();
        assert_eq!(wire, "n0\0r7\0b3");
        let decoded = Permissions::from_wire(&wire).unwrap();
        assert_eq!(decoded.owner(), DomId(0));
        assert_eq!(decoded.level_for(DomId(7)), PermLevel::Read);
        assert_eq!(decoded.level_for(DomId(3)), PermLevel::ReadWrite);
        assert!(Permissions::from_wire("").is_none());
        assert!(Permissions::from_wire("z9").is_none());
        assert!(Permissions::from_wire("rabc").is_none());
    }
}
