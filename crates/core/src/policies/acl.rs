//! Access control lists and the MoinMoin-style page policy (Figure 5).

use std::any::Any;
use std::fmt;

use crate::context::Context;
use crate::error::PolicyViolation;
use crate::policy::Policy;

/// A right an ACL can grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Right {
    /// Permission to read the protected data.
    Read,
    /// Permission to modify the protected data.
    Write,
    /// Permission to administer the ACL itself.
    Admin,
}

impl Right {
    /// Single-letter code used in the serialized form (`r`, `w`, `a`).
    pub fn code(self) -> char {
        match self {
            Right::Read => 'r',
            Right::Write => 'w',
            Right::Admin => 'a',
        }
    }

    /// Parses a single-letter code.
    pub fn from_code(c: char) -> Option<Right> {
        match c {
            'r' => Some(Right::Read),
            'w' => Some(Right::Write),
            'a' => Some(Right::Admin),
            _ => None,
        }
    }
}

/// An access control list: an ordered list of `(principal, rights)` entries.
///
/// The principal `*` matches any user. Lookup scans entries in order and
/// grants the right if any matching entry includes it, mirroring wiki-style
/// ACLs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Acl {
    entries: Vec<(String, Vec<Right>)>,
}

impl Acl {
    /// An empty ACL (denies everyone).
    pub fn new() -> Self {
        Acl::default()
    }

    /// Builder: grants `rights` to `principal`.
    pub fn grant(mut self, principal: impl Into<String>, rights: &[Right]) -> Self {
        self.entries.push((principal.into(), rights.to_vec()));
        self
    }

    /// Grants `rights` to `principal` in place.
    pub fn add(&mut self, principal: impl Into<String>, rights: &[Right]) {
        self.entries.push((principal.into(), rights.to_vec()));
    }

    /// Revokes all entries for `principal`.
    pub fn revoke(&mut self, principal: &str) {
        self.entries.retain(|(p, _)| p != principal);
    }

    /// True if `user` holds `right` (directly or via the `*` wildcard).
    pub fn may(&self, user: &str, right: Right) -> bool {
        self.entries
            .iter()
            .any(|(p, rights)| (p == user || p == "*") && rights.contains(&right))
    }

    /// All principals with an entry (excluding the wildcard).
    pub fn principals(&self) -> impl Iterator<Item = &str> {
        self.entries
            .iter()
            .map(|(p, _)| p.as_str())
            .filter(|p| *p != "*")
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the ACL has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialized form: `alice:rw,bob:r,*:r`.
    ///
    /// `%`, `:` and `,` inside a principal are written `%XX`, so a
    /// principal can never read back as a delimiter: a user who names
    /// themselves `mallory:r,eve` is one (odd) principal after the round
    /// trip, not two entries. Principals without those characters encode
    /// as themselves.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (i, (p, rights)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            for c in p.chars() {
                match c {
                    '%' => out.push_str("%25"),
                    ':' => out.push_str("%3A"),
                    ',' => out.push_str("%2C"),
                    c => out.push(c),
                }
            }
            out.push(':');
            out.extend(rights.iter().map(|r| r.code()));
        }
        out
    }

    /// Parses the serialized form produced by [`Acl::encode`]. A
    /// malformed entry, right code or `%XX` escape yields `None`, which
    /// fails the revive of the policy carrying the ACL closed.
    pub fn decode(s: &str) -> Option<Acl> {
        let mut acl = Acl::new();
        if s.is_empty() {
            return Some(acl);
        }
        for entry in s.split(',') {
            let (p, codes) = entry.split_once(':')?;
            let mut rights = Vec::new();
            for c in codes.chars() {
                rights.push(Right::from_code(c)?);
            }
            acl.entries
                .push((crate::serialize::unescape(p).ok()?, rights));
        }
        Some(acl)
    }
}

impl fmt::Display for Acl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Data Flow Assertion 4: *wiki page `p` may flow out of the system only to
/// a user on `p`'s ACL* (Figure 5).
///
/// The policy carries a copy of the page's ACL; `export_check` matches the
/// channel's `user` context entry against the ACL's read right. Channels
/// with no authenticated user deny — data guarded by a `PagePolicy` cannot
/// leak through an anonymous channel.
#[derive(Debug, Clone)]
pub struct PagePolicy {
    acl: Acl,
}

impl PagePolicy {
    /// Page policy enforcing `acl`.
    pub fn new(acl: Acl) -> Self {
        PagePolicy { acl }
    }

    /// The embedded ACL.
    pub fn acl(&self) -> &Acl {
        &self.acl
    }
}

impl Policy for PagePolicy {
    fn name(&self) -> &str {
        "PagePolicy"
    }

    fn export_check(&self, context: &Context) -> Result<(), PolicyViolation> {
        let Some(user) = context.get_str("user") else {
            return Err(PolicyViolation::new(
                self.name(),
                "insufficient access: no authenticated user on channel",
            ));
        };
        if self.acl.may(user, Right::Read) {
            Ok(())
        } else {
            Err(PolicyViolation::new(
                self.name(),
                format!("insufficient access: `{user}` not on read ACL"),
            ))
        }
    }

    fn serialize_fields(&self) -> Vec<(String, String)> {
        vec![("acl".to_string(), self.acl.encode())]
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    fn acl() -> Acl {
        Acl::new()
            .grant("alice", &[Right::Read, Right::Write])
            .grant("bob", &[Right::Read])
    }

    #[test]
    fn acl_lookup() {
        let a = acl();
        assert!(a.may("alice", Right::Read));
        assert!(a.may("alice", Right::Write));
        assert!(a.may("bob", Right::Read));
        assert!(!a.may("bob", Right::Write));
        assert!(!a.may("mallory", Right::Read));
    }

    #[test]
    fn wildcard_matches_anyone() {
        let a = Acl::new().grant("*", &[Right::Read]);
        assert!(a.may("anyone", Right::Read));
        assert!(!a.may("anyone", Right::Write));
        assert_eq!(a.principals().count(), 0, "wildcard not a principal");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let a = acl().grant("*", &[Right::Read]);
        let s = a.encode();
        assert_eq!(s, "alice:rw,bob:r,*:r");
        let b = Acl::decode(&s).unwrap();
        assert_eq!(a, b);
        assert_eq!(Acl::decode("").unwrap(), Acl::new());
        assert!(Acl::decode("bad").is_none());
        assert!(Acl::decode("x:q").is_none());
    }

    #[test]
    fn hostile_principals_cannot_add_entries() {
        // A principal is a user-chosen string (HotCRP puts author names
        // in verbatim): its `:` and `,` must not read back as delimiters.
        for hostile in [
            "mallory@x.org:r,eve@evil.org",
            "a,b",
            "a:rwa",
            "100%:r",
            "%2C",
            "zoë:w,*",
            ",",
            ":",
        ] {
            let a = Acl::new()
                .grant(hostile, &[Right::Read])
                .grant("bob", &[Right::Write]);
            let b = Acl::decode(&a.encode()).expect("decodes");
            assert_eq!(a, b, "{hostile:?} via {:?}", a.encode());
            assert!(!b.may("eve@evil.org", Right::Read));
            assert!(!b.may("anyone", Right::Read), "no wildcard smuggled in");
            assert_eq!(b.len(), 2);
        }
        // A principal without the three characters encodes as itself.
        assert_eq!(
            Acl::new().grant("pc1@conf.org", &[Right::Read]).encode(),
            "pc1@conf.org:r"
        );
        // A malformed escape fails the decode: no guessing.
        assert!(Acl::decode("a%:r").is_none());
        assert!(Acl::decode("a%2:r").is_none());
        assert!(Acl::decode("a%zz:r").is_none());
        assert!(Acl::decode("a%ff:r").is_none(), "not UTF-8");
    }

    #[test]
    fn revoke_removes() {
        let mut a = acl();
        a.revoke("alice");
        assert!(!a.may("alice", Right::Read));
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
    }

    #[test]
    fn page_policy_enforces_read_acl() {
        let p = PagePolicy::new(acl());
        let mut ctx = Context::new(GateKind::Http);
        assert!(p.export_check(&ctx).is_err(), "anonymous denied");
        ctx.set_str("user", "bob");
        assert!(p.export_check(&ctx).is_ok());
        ctx.set_str("user", "mallory");
        let err = p.export_check(&ctx).unwrap_err();
        assert!(err.message.contains("mallory"));
    }

    #[test]
    fn page_policy_serializes_acl() {
        let p = PagePolicy::new(acl());
        let fields = p.serialize_fields();
        assert_eq!(fields[0].0, "acl");
        assert_eq!(fields[0].1, "alice:rw,bob:r");
    }
}
