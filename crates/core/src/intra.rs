//! The authenticated intra-block index (paper §6.1, Fig. 6).
//!
//! A binary Merkle tree over a block's objects where every node additionally
//! stores the multiset union of its subtree's attributes and its
//! accumulative digest. Built bottom-up by greedy Jaccard clustering
//! (Algorithm 2) so that similar objects share mismatch proofs; queried by
//! pruning tree search (Algorithm 3).
//!
//! The search *plans*: its single descent (`IntraTree::plan`) decides what
//! is returned and what is refuted by which clause, files every refutation
//! as a [`ProofRequest`], and returns the VO with request indices where the
//! proofs go (`PlannedVo` — a type of this module, so nothing
//! [`crate::wire`] encodes can hold an unfilled proof). The caller resolves
//! the requests — of this block alone ([`IntraTree::query`]), of a whole
//! time window, of every candidate of a subscription block — through
//! [`ProofCache::resolve`], and `PlannedVo::fill` puts the proofs in.

use std::collections::BTreeMap;

use vchain_acc::{AccError, Accumulator, MultiSet};
use vchain_chain::Object;
use vchain_hash::{hash_concat, hash_pair, Digest};

use crate::cache::{ProofCache, ProofRequest};
use crate::element::ElementId;
use crate::query::{object_multiset, CompiledQuery};
use crate::subindex::Cell;
use crate::vo::{Att, BlockVo, ClauseRef, GroupProof, MismatchProof, ProofBytes, VoNode};

/// Node payload: a leaf holds one object, an internal node two children.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntraNodeKind {
    /// A leaf over one object.
    Leaf {
        /// Index into the block's object list.
        obj_idx: usize,
    },
    /// An internal node over two children.
    Internal {
        /// Arena index of the left child.
        left: usize,
        /// Arena index of the right child.
        right: usize,
    },
}

/// One node of the index (arena-allocated in [`IntraTree::nodes`]).
#[derive(Clone, Debug)]
pub struct IntraNode<A: Accumulator> {
    /// The node's Merkle commitment.
    pub hash: Digest,
    /// The multiset union of the subtree's attributes.
    pub ms: MultiSet<ElementId>,
    /// `AttDigest`. `None` only for internal nodes under the `nil` scheme
    /// (plain Merkle interior, no pruning possible).
    pub att: Option<A::Value>,
    /// Leaf or internal payload.
    pub kind: IntraNodeKind,
}

/// A block's VO as the walk leaves it: the nodes of [`BlockVo`]'s pruned
/// tree with, wherever a proof goes, the index of the request that will
/// produce it.
pub(crate) struct PlannedVo {
    /// The walk in pre-order: an `Internal` is followed by its left subtree,
    /// then its right. (Flat, so that planning a node costs a push and the
    /// tree is boxed once, by `fill`.)
    nodes: Vec<PlannedNode>,
    /// `(clause index, request)` of each §6.3 group, ascending by clause:
    /// a group's id is its rank here.
    groups: Vec<(u16, usize)>,
}

/// [`VoNode`], children to follow and proofs pending.
enum PlannedNode {
    Internal { att: Option<Att> },
    InternalMismatch { child_hash: Digest, att: Att, proof: PlannedProof },
    LeafMatch { att: Att, result_idx: u32 },
    LeafMismatch { obj_hash: Digest, att: Att, proof: PlannedProof },
}

/// [`MismatchProof`], proof pending.
enum PlannedProof {
    /// The proof request `request` answers, refuting `clause`.
    Inline { request: usize, clause: ClauseRef },
    /// Member of the §6.3 group of this clause index.
    Group(u16),
}

impl PlannedVo {
    /// The VO, given the answers to the requests it was planned against
    /// ([`ProofCache::resolve`]'s, indexed as the requests were).
    pub(crate) fn fill<A: Accumulator>(
        self,
        proofs: &[Result<ProofBytes<A>, AccError>],
    ) -> BlockVo<A> {
        let proof = |request: usize| -> ProofBytes<A> {
            proofs[request].clone().expect("the walk found the clause disjoint from the node")
        };
        let fill_proof = |planned| match planned {
            PlannedProof::Inline { request, clause } => {
                MismatchProof::Inline { proof: proof(request), clause }
            }
            PlannedProof::Group(clause) => {
                let id = self.groups.binary_search_by_key(&clause, |&(c, _)| c);
                MismatchProof::Group(id.expect("a group clause") as u16)
            }
        };
        let root = fill_node(&mut self.nodes.into_iter(), &fill_proof);
        let groups = self
            .groups
            .iter()
            .map(|&(clause, request)| GroupProof {
                clause: ClauseRef::Index(clause),
                proof: proof(request),
            })
            .collect();
        BlockVo { root, groups }
    }
}

/// Rebuild the subtree whose pre-order walk `nodes` yields next.
fn fill_node<A: Accumulator>(
    nodes: &mut impl Iterator<Item = PlannedNode>,
    fill_proof: &impl Fn(PlannedProof) -> MismatchProof<A>,
) -> VoNode<A> {
    match nodes.next().expect("an internal node is followed by both its subtrees") {
        PlannedNode::Internal { att } => {
            let left = Box::new(fill_node(nodes, fill_proof));
            let right = Box::new(fill_node(nodes, fill_proof));
            VoNode::Internal { att, left, right }
        }
        PlannedNode::InternalMismatch { child_hash, att, proof } => {
            VoNode::InternalMismatch { child_hash, att, proof: fill_proof(proof) }
        }
        PlannedNode::LeafMatch { att, result_idx } => VoNode::LeafMatch { att, result_idx },
        PlannedNode::LeafMismatch { obj_hash, att, proof } => {
            VoNode::LeafMismatch { obj_hash, att, proof: fill_proof(proof) }
        }
    }
}

/// The per-block authenticated index.
#[derive(Clone, Debug)]
pub struct IntraTree<A: Accumulator> {
    /// Arena of nodes (leaves first, then internals bottom-up).
    pub nodes: Vec<IntraNode<A>>,
    /// Arena index of the root.
    pub root: usize,
}

/// Leaf commitment: `hash("leaf" | hash(o) | AttDigest)`, over the
/// AttDigest's canonical bytes ([`Att`]).
pub fn leaf_hash(obj_digest: &Digest, att: &Att) -> Digest {
    hash_concat(&[b"vchain/leaf", &obj_digest.0, att.as_bytes()])
}

/// Authenticated internal commitment:
/// `hash("internal" | hash(h_l | h_r) | AttDigest)` (paper Def. 6.1).
pub fn internal_hash(child_pair: &Digest, att: &Att) -> Digest {
    hash_concat(&[b"vchain/internal", &child_pair.0, att.as_bytes()])
}

/// A tree as Algorithm 2 plans it: the shape and every node's multiset — all
/// the clustering reads — with no digest set up and nothing hashed. Arena
/// order as in [`IntraTree::nodes`]: leaves first, children before parents.
struct TreePlan {
    multisets: Vec<MultiSet<ElementId>>,
    kinds: Vec<IntraNodeKind>,
}

impl TreePlan {
    /// One leaf per object, over its `W′` multiset.
    fn leaves(objects: &[Object], domain_bits: u8) -> Self {
        assert!(!objects.is_empty(), "a block must contain at least one object");
        Self {
            multisets: objects.iter().map(|o| object_multiset(o, domain_bits)).collect(),
            kinds: (0..objects.len()).map(|obj_idx| IntraNodeKind::Leaf { obj_idx }).collect(),
        }
    }

    /// Add the parent of `left` and `right`, over the union of their
    /// multisets. Returns its arena index.
    fn join(&mut self, left: usize, right: usize) -> usize {
        self.multisets.push(self.multisets[left].union(&self.multisets[right]));
        self.kinds.push(IntraNodeKind::Internal { left, right });
        self.kinds.len() - 1
    }

    /// Algorithm 2: greedy Jaccard clustering, bottom-up.
    fn clustered(objects: &[Object], domain_bits: u8) -> Self {
        let mut plan = Self::leaves(objects, domain_bits);
        let mut frontier: Vec<usize> = (0..objects.len()).collect();
        while frontier.len() > 1 {
            let mut next_level = Vec::with_capacity(frontier.len() / 2 + 1);
            while frontier.len() > 1 {
                // n_l: the node with the largest attribute support
                let (li, _) = frontier
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &n)| plan.multisets[n].distinct_len())
                    .expect("non-empty frontier");
                let nl = frontier.swap_remove(li);
                // n_r: the frontier node most similar to n_l (Jaccard)
                let (ri, _) = frontier
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| (i, plan.multisets[nl].jaccard(&plan.multisets[n])))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("non-empty frontier");
                let nr = frontier.swap_remove(ri);
                next_level.push(plan.join(nl, nr));
            }
            // a leftover odd node is carried upward (Algorithm 2's
            // `nodes ← newnodes + nodes`)
            next_level.append(&mut frontier);
            frontier = next_level;
        }
        plan
    }

    /// The `nil` baseline's shape: balanced, in arrival order.
    fn balanced(objects: &[Object], domain_bits: u8) -> Self {
        let mut plan = Self::leaves(objects, domain_bits);
        let mut frontier: Vec<usize> = (0..objects.len()).collect();
        while frontier.len() > 1 {
            frontier = frontier
                .chunks(2)
                .map(|pair| match *pair {
                    [l, r] => plan.join(l, r),
                    [odd] => odd,
                    _ => unreachable!(),
                })
                .collect();
        }
        plan
    }
}

impl<A: Accumulator> IntraTree<A> {
    /// Algorithm 2: greedy Jaccard clustering, bottom-up. Internal nodes get
    /// union multisets and AttDigests, enabling subtree pruning.
    pub fn build_clustered(objects: &[Object], acc: &A, domain_bits: u8) -> Self {
        Self::set_up(TreePlan::clustered(objects, domain_bits), objects, acc, true)
    }

    /// The `nil` baseline: a balanced Merkle tree in arrival order whose
    /// internal nodes carry no AttDigest, so queries must visit every leaf.
    pub fn build_nil(objects: &[Object], acc: &A, domain_bits: u8) -> Self {
        Self::set_up(TreePlan::balanced(objects, domain_bits), objects, acc, false)
    }

    /// Give a planned tree its digests — every digest-bearing node (all of
    /// them, or the leaves alone) through one [`Accumulator::setup_batch`] —
    /// and then its hashes, in arena order: a parent's children are hashed
    /// before it.
    fn set_up(plan: TreePlan, objects: &[Object], acc: &A, digest_internals: bool) -> Self {
        let bears_digest =
            |kind: &IntraNodeKind| digest_internals || matches!(kind, IntraNodeKind::Leaf { .. });
        let jobs: Vec<&MultiSet<ElementId>> = plan
            .multisets
            .iter()
            .zip(&plan.kinds)
            .filter_map(|(ms, kind)| bears_digest(kind).then_some(ms))
            .collect();
        let mut atts = acc.setup_batch(&jobs).into_iter();
        let mut nodes: Vec<IntraNode<A>> = Vec::with_capacity(plan.kinds.len());
        for (ms, kind) in plan.multisets.into_iter().zip(plan.kinds) {
            let att = bears_digest(&kind).then(|| {
                let att = atts.next().expect("one result per job");
                att.expect("a block's attributes lie within the accumulator key's bounds")
            });
            let hash = match kind {
                IntraNodeKind::Leaf { obj_idx } => {
                    let att = att.as_ref().expect("leaves always carry AttDigest");
                    leaf_hash(&objects[obj_idx].digest(), &Att::of::<A>(att))
                }
                IntraNodeKind::Internal { left, right } => {
                    let pair = hash_pair(&nodes[left].hash, &nodes[right].hash);
                    // a nil interior is a plain Merkle pair
                    att.as_ref().map_or(pair, |att| internal_hash(&pair, &Att::of::<A>(att)))
                }
            };
            nodes.push(IntraNode { hash, ms, att, kind });
        }
        // Both plans add the root last.
        Self { root: nodes.len() - 1, nodes }
    }

    /// The root Merkle commitment (goes into the block header).
    pub fn root_hash(&self) -> Digest {
        self.nodes[self.root].hash
    }

    /// The block-level attribute multiset (the root's union).
    pub fn root_multiset(&self) -> &MultiSet<ElementId> {
        &self.nodes[self.root].ms
    }

    /// The root AttDigest (`None` under the `nil` scheme).
    pub fn root_att(&self) -> Option<&A::Value> {
        self.nodes[self.root].att.as_ref()
    }

    /// Number of leaves (= number of objects indexed).
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n.kind, IntraNodeKind::Leaf { .. })).count()
    }

    /// Nominal ADS size contributed by this tree (AttDigests + hashes), the
    /// paper's Table-1 "S" metric.
    pub fn ads_size_bytes(&self, acc: &A) -> usize {
        self.nodes
            .iter()
            .map(|n| Digest::LEN + n.att.as_ref().map(|_| acc.value_size()).unwrap_or(0))
            .sum()
    }

    /// Algorithm 3: pruning tree search. Returns this block's matching
    /// objects and the VO mirroring the pruned tree — for a caller with this
    /// one block to answer: plan, resolve against `cache`, fill. (The
    /// serving paths plan many walks and resolve them together.)
    ///
    /// `cell` is the §7.1 sharing rule for standing queries: the grid cell
    /// enclosing `q`'s range box ([`Cell::enclosing`]). Where one of its
    /// slabs is absent from a node, the node is refuted by that cell clause
    /// in preference to a clause of `q` — a refutation, and through the
    /// cache a proof, common to every query the cell encloses. Time-window
    /// queries pass `None`.
    ///
    /// `batch` asks for §6.3 online batch verification: mismatching nodes
    /// that share a clause are aggregated into one group proof. It takes
    /// effect only with an aggregating accumulator (Construction 2); the
    /// time-window path always asks, the subscription engine never does.
    /// Cell refutations stay inline.
    ///
    /// Every proof goes through the window-level [`ProofCache`], and every
    /// lookup is made with a key the walk already holds: an inline mismatch
    /// proof by `(node AttDigest, clause)`, a §6.3 group proof by its
    /// members' AttDigests in walk order plus the clause
    /// ([`ProofCache::group_key`]). The members' multisets are summed and
    /// the proof computed only on a miss — so overlapping windows and
    /// repeated subscription scans re-prove nothing, and a fully warm query
    /// does no curve arithmetic. A one-off caller passes a fresh cache.
    pub fn query(
        &self,
        objects: &[Object],
        q: &CompiledQuery,
        cell: Option<&Cell>,
        acc: &A,
        batch: bool,
        cache: &ProofCache<A>,
    ) -> (Vec<Object>, BlockVo<A>) {
        let mut requests = Vec::new();
        let batch = batch && acc.supports_aggregation();
        let (results, vo) = self.plan(objects, q, cell, batch, &mut requests);
        (results, vo.fill(&cache.resolve(acc, requests)))
    }

    /// The descent of [`IntraTree::query`] on its own: decide results and
    /// refutations, append each refutation to `requests`, and return the VO
    /// planned against their indices. `batch` defers clause refutations to
    /// §6.3 groups — the caller has checked that the accumulator aggregates.
    pub(crate) fn plan<'a>(
        &'a self,
        objects: &[Object],
        q: &CompiledQuery,
        cell: Option<&Cell>,
        batch: bool,
        requests: &mut Vec<ProofRequest<'a, ElementId>>,
    ) -> (Vec<Object>, PlannedVo) {
        let mut walk = Walk {
            tree: self,
            objects,
            q,
            cell,
            batch,
            requests,
            results: Vec::new(),
            nodes: Vec::new(),
            deferred: BTreeMap::new(),
        };
        walk.descend(self.root);
        let Walk { requests, results, nodes, deferred, .. } = walk;

        // Batch grouping (§6.3): one aggregate proof per distinct mismatch
        // clause, over the multiset sum of the member nodes.
        let mut groups = Vec::with_capacity(deferred.len());
        for (clause_idx, members) in deferred {
            let members = members.iter().map(|&n| {
                let node = &self.nodes[n];
                (node.att.as_ref().expect("only digest-bearing nodes mismatch"), &node.ms)
            });
            groups.push((clause_idx, requests.len()));
            let clause_ms = q.cnf.0[clause_idx as usize].to_multiset();
            requests.push(ProofRequest::group::<A>(members, clause_ms));
        }
        (results, PlannedVo { nodes, groups })
    }
}

/// One descent of [`IntraTree::plan`]: what it walks, and what it
/// accumulates.
struct Walk<'w, 'a, A: Accumulator> {
    tree: &'a IntraTree<A>,
    objects: &'w [Object],
    q: &'w CompiledQuery,
    cell: Option<&'w Cell>,
    batch: bool,
    requests: &'w mut Vec<ProofRequest<'a, ElementId>>,
    /// The block's matching objects.
    results: Vec<Object>,
    /// The pruned tree, in pre-order.
    nodes: Vec<PlannedNode>,
    /// Clause refutations deferred to §6.3 grouping: clause index → member
    /// nodes in walk order.
    deferred: BTreeMap<u16, Vec<usize>>,
}

impl<A: Accumulator> Walk<'_, '_, A> {
    fn descend(&mut self, idx: usize) {
        let tree = self.tree;
        let node = &tree.nodes[idx];
        // Only a digest-bearing node can be refuted; a nil interior is a
        // plain Merkle pair and is always descended.
        if let Some(value) = &node.att {
            // The query's enclosing grid cell has slabs absent from the
            // node ([`Cell::absent_slab_clause`]), or else clause `i` of the
            // query's CNF is disjoint from the node's multiset.
            let refutation = match self.cell.and_then(|c| c.absent_slab_clause(&node.ms)) {
                Some(cell_clause) => Some(cell_clause),
                None => self
                    .q
                    .cnf
                    .find_disjoint_clause(&node.ms)
                    .map(|i| (self.q.cnf.0[i].to_multiset(), ClauseRef::Index(i as u16))),
            };
            if let Some((clause_ms, clause)) = refutation {
                let proof = match clause {
                    // Defer: file the node under its clause; `fill`, which
                    // knows every group of the block, turns that into an id.
                    ClauseRef::Index(i) if self.batch => {
                        self.deferred.entry(i).or_default().push(idx);
                        PlannedProof::Group(i)
                    }
                    clause => {
                        self.requests.push(ProofRequest::node::<A>(value, &node.ms, clause_ms));
                        PlannedProof::Inline { request: self.requests.len() - 1, clause }
                    }
                };
                let att = Att::of::<A>(value);
                self.nodes.push(match &node.kind {
                    IntraNodeKind::Leaf { obj_idx } => PlannedNode::LeafMismatch {
                        obj_hash: self.objects[*obj_idx].digest(),
                        att,
                        proof,
                    },
                    IntraNodeKind::Internal { left, right } => {
                        let child_hash =
                            hash_pair(&tree.nodes[*left].hash, &tree.nodes[*right].hash);
                        PlannedNode::InternalMismatch { child_hash, att, proof }
                    }
                });
                return;
            }
        }

        let att = node.att.as_ref().map(Att::of::<A>);
        match &node.kind {
            IntraNodeKind::Leaf { obj_idx } => {
                // match: return the object
                let att = att.expect("leaves always carry AttDigest");
                let result_idx = self.results.len() as u32;
                self.results.push(self.objects[*obj_idx].clone());
                self.nodes.push(PlannedNode::LeafMatch { att, result_idx });
            }
            IntraNodeKind::Internal { left, right } => {
                self.nodes.push(PlannedNode::Internal { att });
                self.descend(*left);
                self.descend(*right);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, RangeSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;
    use vchain_acc::Acc1;

    fn acc() -> Acc1 {
        static A: OnceLock<Acc1> = OnceLock::new();
        A.get_or_init(|| Acc1::keygen(128, &mut StdRng::seed_from_u64(3))).clone()
    }

    fn objects() -> Vec<Object> {
        vec![
            Object::new(1, 10, vec![4], vec!["Sedan".into(), "Benz".into()]),
            Object::new(2, 10, vec![5], vec!["Sedan".into(), "Audi".into()]),
            Object::new(3, 10, vec![6], vec!["Van".into(), "Benz".into()]),
            Object::new(4, 10, vec![7], vec!["Van".into(), "BMW".into()]),
        ]
    }

    #[test]
    fn clustered_build_invariants() {
        let a = acc();
        let tree = IntraTree::build_clustered(&objects(), &a, 3);
        assert_eq!(tree.leaf_count(), 4);
        assert_eq!(tree.nodes.len(), 7, "4 leaves + 3 internal nodes");
        // root multiset is the union of all leaf multisets
        let root_ms = tree.root_multiset();
        for o in objects() {
            for e in object_multiset(&o, 3).elements() {
                assert!(root_ms.contains(e));
            }
        }
        assert!(tree.root_att().is_some());
        assert!(tree.ads_size_bytes(&a) > 0);
    }

    #[test]
    fn clustering_groups_similar_objects() {
        // Fig. 6's point: the two "Sedan" objects (and the two "Van"
        // objects) should end up as siblings under Jaccard clustering.
        let a = acc();
        let tree = IntraTree::build_clustered(&objects(), &a, 3);
        let sibling_pairs: Vec<(usize, usize)> = tree
            .nodes
            .iter()
            .filter_map(|n| match n.kind {
                IntraNodeKind::Internal { left, right } => {
                    match (&tree.nodes[left].kind, &tree.nodes[right].kind) {
                        (
                            IntraNodeKind::Leaf { obj_idx: l },
                            IntraNodeKind::Leaf { obj_idx: r },
                        ) => Some((*l.min(r), *l.max(r))),
                        _ => None,
                    }
                }
                _ => None,
            })
            .collect();
        // objects 0,1 share "Sedan"; 2,3 share "Van" — with disjoint numeric
        // prefixes those are the max-Jaccard pairings
        assert!(
            sibling_pairs.contains(&(0, 1)) || sibling_pairs.contains(&(2, 3)),
            "expected similarity-based pairing, got {sibling_pairs:?}"
        );
    }

    #[test]
    fn nil_build_has_no_internal_digests() {
        let a = acc();
        let tree = IntraTree::build_nil(&objects(), &a, 3);
        for n in &tree.nodes {
            match n.kind {
                IntraNodeKind::Leaf { .. } => assert!(n.att.is_some()),
                IntraNodeKind::Internal { .. } => assert!(n.att.is_none()),
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = acc();
        let t1 = IntraTree::build_clustered(&objects(), &a, 3);
        let t2 = IntraTree::build_clustered(&objects(), &a, 3);
        assert_eq!(t1.root_hash(), t2.root_hash());
    }

    #[test]
    fn query_prunes_on_clustered_tree() {
        let a = acc();
        let tree = IntraTree::build_clustered(&objects(), &a, 3);
        // "Sedan" ∧ (Benz ∨ BMW) — §5.1's running example: only object 1
        let q = Query {
            time_window: None,
            ranges: vec![],
            keywords: vec![vec!["Sedan".into()], vec!["Benz".into(), "BMW".into()]],
        }
        .compile(3);
        let (results, vo) = tree.query(&objects(), &q, None, &a, false, &ProofCache::new(8));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, 1);
        assert!(vo.groups.is_empty(), "acc1 cannot batch");
    }

    #[test]
    fn single_object_block() {
        let a = acc();
        let objs = vec![Object::new(9, 10, vec![2], vec!["X".into()])];
        let tree = IntraTree::build_clustered(&objs, &a, 3);
        assert_eq!(tree.nodes.len(), 1);
        let q = Query { time_window: None, ranges: vec![], keywords: vec![vec!["X".into()]] }
            .compile(3);
        let (results, _) = tree.query(&objs, &q, None, &a, false, &ProofCache::new(8));
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn range_query_against_tree() {
        let a = acc();
        let tree = IntraTree::build_clustered(&objects(), &a, 3);
        let q = Query {
            time_window: None,
            ranges: vec![RangeSpec { dim: 0, lo: 0, hi: 5 }],
            keywords: vec![],
        }
        .compile(3);
        let (results, _) = tree.query(&objects(), &q, None, &a, false, &ProofCache::new(8));
        let mut ids: Vec<u64> = results.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2], "values 4 and 5 lie in [0, 5]");
    }
}
