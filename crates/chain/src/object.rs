//! Temporal data objects `oᵢ = ⟨tᵢ, Vᵢ, Wᵢ⟩` (paper §3).

use vchain_hash::{hash_concat, Digest};

/// A globally unique object identifier (assigned by the data source).
pub type ObjectId = u64;

/// A timestamped object with a multi-dimensional numeric vector `V` and a
/// set-valued attribute `W`.
///
/// ```
/// use vchain_chain::Object;
/// let o = Object::new(1, 1000, vec![4, 2], vec!["Sedan".into(), "Benz".into()]);
/// assert_eq!(o.numeric.len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Object {
    pub id: ObjectId,
    /// The timestamp `tᵢ`.
    pub timestamp: u64,
    /// The numeric vector `Vᵢ` (one entry per dimension, already quantized
    /// to the binary domain used by the prefix transformation).
    pub numeric: Vec<u64>,
    /// The set-valued attribute `Wᵢ` (keywords, addresses, …).
    pub keywords: Vec<String>,
}

impl Object {
    pub fn new(id: ObjectId, timestamp: u64, numeric: Vec<u64>, keywords: Vec<String>) -> Self {
        Self { id, timestamp, numeric, keywords }
    }

    /// The binding commitment `hash(oᵢ)` used in block headers and index
    /// leaves. Fields are length-prefixed via `hash_concat`; keyword order
    /// is canonicalized so logically equal objects hash equally.
    pub fn digest(&self) -> Digest {
        let mut parts: Vec<Vec<u8>> =
            Vec::with_capacity(3 + self.numeric.len() + self.keywords.len());
        parts.push(self.id.to_le_bytes().to_vec());
        parts.push(self.timestamp.to_le_bytes().to_vec());
        parts.push((self.numeric.len() as u64).to_le_bytes().to_vec());
        for v in &self.numeric {
            parts.push(v.to_le_bytes().to_vec());
        }
        let mut kws: Vec<&str> = self.keywords.iter().map(String::as_str).collect();
        kws.sort_unstable();
        for k in kws {
            parts.push(k.as_bytes().to_vec());
        }
        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        hash_concat(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_under_keyword_order() {
        let a = Object::new(1, 5, vec![7], vec!["x".into(), "y".into()]);
        let b = Object::new(1, 5, vec![7], vec!["y".into(), "x".into()]);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_binds_every_field() {
        let base = Object::new(1, 5, vec![7, 8], vec!["x".into()]);
        let mut o = base.clone();
        o.id = 2;
        assert_ne!(o.digest(), base.digest());
        let mut o = base.clone();
        o.timestamp = 6;
        assert_ne!(o.digest(), base.digest());
        let mut o = base.clone();
        o.numeric[1] = 9;
        assert_ne!(o.digest(), base.digest());
        let mut o = base.clone();
        o.keywords.push("z".into());
        assert_ne!(o.digest(), base.digest());
    }

    #[test]
    fn numeric_length_is_bound() {
        // [7,8] vs [78] style ambiguity must not collide
        let a = Object::new(1, 5, vec![7, 8], vec![]);
        let b = Object::new(1, 5, vec![7], vec![]);
        assert_ne!(a.digest(), b.digest());
    }
}
