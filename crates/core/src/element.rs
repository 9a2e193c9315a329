//! Set elements and the process-wide element dictionary.
//!
//! After the §5.3 transformation, every attribute — keyword or numeric —
//! is a *set element*: either a keyword string or a tagged binary prefix.
//! Elements are interned into small integer [`ElementId`]s, which
//!
//! * makes multisets cheap (`BTreeMap<u32, u64>` under the hood),
//! * caches each element's scalar-field representative for Construction 1,
//! * provides the public integer encoding `[1, q)` that Construction 2
//!   requires (the dictionary plays the paper's "hash to integer + trusted
//!   oracle" role; see DESIGN.md §2).

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use parking_lot::RwLock;
use vchain_acc::AccElem;
use vchain_pairing::Fr;

/// A set element: a keyword, or a binary prefix `bits` of length `len`
/// (most-significant bits of the attribute value) in dimension `dim`.
///
/// The paper writes prefixes like `10*₂` — here `Prefix { dim: 1, len: 2,
/// bits: 0b10 }` (dimensions are 0-based).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Element {
    /// A textual attribute (the paper's set W).
    Keyword(String),
    /// A binary prefix of a numeric attribute (the paper's `trans(·)`).
    Prefix {
        /// 0-based numeric dimension.
        dim: u8,
        /// Prefix length in bits.
        len: u8,
        /// The most-significant `len` bits of the value.
        bits: u64,
    },
}

impl Element {
    /// Convenience constructor for a keyword element.
    pub fn keyword(s: impl Into<String>) -> Self {
        Element::Keyword(s.into())
    }

    /// Canonical bytes: the injective encoding from which the scalar-field
    /// representative is derived. Also the hashing pre-image for the
    /// per-block attribute Bloom filters ([`crate::bloom`]), which must be
    /// stable across processes — unlike [`ElementId`]s, whose numbering
    /// depends on interning order.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        match self {
            Element::Keyword(s) => {
                let mut out = vec![0u8];
                out.extend_from_slice(s.as_bytes());
                out
            }
            Element::Prefix { dim, len, bits } => {
                let mut out = vec![1u8, *dim, *len];
                out.extend_from_slice(&bits.to_le_bytes());
                out
            }
        }
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Element::Keyword(s) => write!(f, "{s:?}"),
            Element::Prefix { dim, len, bits } => {
                for i in (0..*len).rev() {
                    write!(f, "{}", (bits >> i) & 1)?;
                }
                write!(f, "*_{dim}")
            }
        }
    }
}

/// An interned element. Ordering follows interning order (stable within a
/// process), which is all the accumulators need.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(u32);

struct Interner {
    map: HashMap<Element, u32>,
    /// element + cached `Fr` representative, indexed by id
    entries: Vec<(Element, Fr)>,
}

static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();

fn interner() -> &'static RwLock<Interner> {
    INTERNER.get_or_init(|| RwLock::new(Interner { map: HashMap::new(), entries: Vec::new() }))
}

impl ElementId {
    /// Intern an element, assigning the next dictionary id on first sight.
    pub fn intern(e: &Element) -> ElementId {
        {
            let guard = interner().read();
            if let Some(&id) = guard.map.get(e) {
                return ElementId(id);
            }
        }
        let mut guard = interner().write();
        if let Some(&id) = guard.map.get(e) {
            return ElementId(id);
        }
        let id = guard.entries.len() as u32;
        let fr = Fr::hash_to_field(&e.canonical_bytes());
        guard.entries.push((e.clone(), fr));
        guard.map.insert(e.clone(), id);
        ElementId(id)
    }

    /// Intern a keyword string directly.
    pub fn keyword(s: &str) -> ElementId {
        Self::intern(&Element::keyword(s))
    }

    /// The element this id denotes.
    pub fn resolve(self) -> Element {
        interner().read().entries[self.0 as usize].0.clone()
    }

    /// The raw 0-based dictionary id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}({})", self.0, self.resolve())
    }
}

impl AccElem for ElementId {
    fn to_fr(&self) -> Fr {
        interner().read().entries[self.0 as usize].1
    }

    fn to_index(&self) -> u64 {
        // Dictionary ids are 0-based; accumulator indices start at 1.
        self.0 as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = ElementId::keyword("sedan-test-interning");
        let b = ElementId::keyword("sedan-test-interning");
        assert_eq!(a, b);
        assert_eq!(a.resolve(), Element::keyword("sedan-test-interning"));
    }

    #[test]
    fn distinct_elements_distinct_ids() {
        let a = ElementId::keyword("kw-a-distinct");
        let b = ElementId::keyword("kw-b-distinct");
        let p = ElementId::intern(&Element::Prefix { dim: 0, len: 3, bits: 0b101 });
        assert_ne!(a, b);
        assert_ne!(a, p);
        assert_ne!(AccElem::to_fr(&a), AccElem::to_fr(&b));
        assert_ne!(a.to_index(), b.to_index());
    }

    #[test]
    fn indices_start_at_one() {
        let a = ElementId::keyword("any-kw-for-index");
        assert!(a.to_index() >= 1);
    }

    #[test]
    fn keyword_and_prefix_cannot_collide() {
        // a keyword that *prints* like a prefix must still be distinct
        let kw = Element::keyword("101*_0");
        let pf = Element::Prefix { dim: 0, len: 3, bits: 0b101 };
        assert_ne!(ElementId::intern(&kw), ElementId::intern(&pf));
        assert_ne!(kw.canonical_bytes(), pf.canonical_bytes());
    }

    #[test]
    fn display_renders_prefix_bits() {
        let e = Element::Prefix { dim: 1, len: 3, bits: 0b110 };
        assert_eq!(format!("{e}"), "110*_1");
    }
}
