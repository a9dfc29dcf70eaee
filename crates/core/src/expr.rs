//! Symbolic expressions over the call data.
//!
//! TASE (type-aware symbolic execution) treats the call data as symbolic and
//! maintains, for every stack and memory value, an expression describing how
//! it was computed (§4.2 of the paper). The rules R1–R31 are *structural*
//! predicates over these expressions — e.g. R2's "`exp(loc)` contains the
//! offset field" or "`exp(loc)` contains a multiplication by 32" — so the
//! [`ExprArena`] deliberately preserves the full operation tree rather than
//! constant-folding it away. Concrete evaluation is available separately
//! through [`ExprArena::eval`].
//!
//! # The arena
//!
//! Every node lives in an [`ExprArena`] and is named by an [`ExprId`]:
//!
//! - **Exact identity.** The arena's node map keys on the whole node (a
//!   constant's four words, or an operator over child ids) and compares
//!   keys on every probe, so two ids are equal exactly when their nodes
//!   are structurally equal. Equality, containment and the use-to-load
//!   match are id comparisons; nothing is keyed by a hash alone.
//! - **Topological ids.** A node's children always have smaller ids, and
//!   ids are dense from 0, so id-indexed tables (the walk marks here, the
//!   inference engine's membership tables) replace per-call hash sets.
//! - **O(1) predicates.** Each node caches dependency flags at
//!   construction, and an all-constant composite node caches its value,
//!   so [`ExprArena::eval`], [`ExprArena::depends_on_calldata`] and the
//!   other hot-path predicates never walk.
//! - **One exploration.** An arena lives as long as one function
//!   exploration: [`crate::Tase`] owns it while exploring and the
//!   [`crate::FunctionFacts`] own it afterwards, so ids are only
//!   meaningful against the facts they came with. The storage is recycled
//!   per thread: dropping an arena clears it and keeps it for the next
//!   one, unless its node map outgrew `MAX_POOLED_NODES`.

use sigrec_evm::U256;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// Binary operators appearing in symbolic expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    SDiv,
    Mod,
    SMod,
    Exp,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sar,
    Byte,
    SignExtend,
    Lt,
    Gt,
    SLt,
    SGt,
    Eq,
}

/// Unary operators appearing in symbolic expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum UnOp {
    IsZero,
    Not,
}

/// The name of a node in its [`ExprArena`]: a dense index, smaller for
/// every child than for its parent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ExprId(u32);

impl ExprId {
    /// The id as an index into id-indexed tables.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape of a symbolic 256-bit value (one [`ExprArena`] node).
///
/// `Shl`/`Shr`/`Sar`/`Byte`/`SignExtend` are normalised to
/// `(value, amount)` operand order regardless of EVM stack order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExprKind {
    /// A compile-time constant.
    Const(U256),
    /// `CALLDATALOAD(loc)`: 32 bytes of call data at a (possibly symbolic)
    /// location.
    CalldataWord(ExprId),
    /// `CALLDATASIZE`.
    CalldataSize,
    /// A free symbol: an environment read, storage load, external call
    /// result, hash, or unresolvable memory read. The id is unique per
    /// *source*, so two loads of the same storage slot yield the same
    /// symbol.
    FreeSym(u32),
    /// A binary operation.
    Binary(BinOp, ExprId, ExprId),
    /// A unary operation.
    Unary(UnOp, ExprId),
}

impl Hash for ExprKind {
    /// Whole 64-bit words, never bytes: a constant is its four limbs.
    fn hash<H: Hasher>(&self, h: &mut H) {
        match *self {
            ExprKind::Const(v) => {
                h.write_u64(1);
                for w in v.limbs() {
                    h.write_u64(w);
                }
            }
            ExprKind::CalldataWord(a) => h.write_u64(2 | u64::from(a.0) << 8),
            ExprKind::CalldataSize => h.write_u64(3),
            ExprKind::FreeSym(s) => h.write_u64(4 | u64::from(s) << 8),
            ExprKind::Unary(op, a) => h.write_u64(5 | (op as u64) << 8 | u64::from(a.0) << 16),
            ExprKind::Binary(op, a, b) => {
                h.write_u64(6 | (op as u64) << 8 | u64::from(a.0) << 16);
                h.write_u64(u64::from(b.0));
            }
        }
    }
}

/// Flag bit: some subexpression is a `CalldataWord`.
const DEP_CALLDATA: u8 = 1;
/// Flag bit: some subexpression is `CalldataSize`.
const DEP_CDSIZE: u8 = 2;
/// Flag bit: some subexpression is a free symbol.
const DEP_FREESYM: u8 = 4;
/// Any symbolic leaf at all — a tree with none of these bits is all-const.
const DEP_SYMBOLIC: u8 = DEP_CALLDATA | DEP_CDSIZE | DEP_FREESYM;
/// Flag bit: some subexpression masks a calldata-derived value — an
/// `AND` with a constant operand, or a shift pair `(x << k) >> k` /
/// `(x >> k) << k`. R16's discriminator, computed bottom-up at
/// construction so the per-arithmetic-op check is O(1) instead of a
/// DAG walk.
const DEP_MASKED: u8 = 8;

/// Largest node map a dropped arena hands back to its thread for reuse,
/// and the cap of every other per-thread pool (see [`sigrec_evm::pool`]).
/// Clearing the map costs O(capacity), so one giant (possibly hostile)
/// function must not tax every later exploration on the thread, nor pin
/// its memory for the thread's life.
pub(crate) use sigrec_evm::pool::{recycle, MAX_POOLED_NODES};

thread_local! {
    /// The cleared storage of the last arena dropped on this thread.
    static POOL: Cell<Option<Storage>> = const { Cell::new(None) };
}

/// The per-process key of the node map's hasher, so that bytecode cannot
/// be crafted to pile its constants into one bucket.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64))
}

/// A multiply-rotate hasher over whole 64-bit words, keyed per process.
/// Node keys are a few words each, and a byte-at-a-time hasher would
/// spend most of the probe on a constant's 32 bytes.
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        // Products carry their entropy in the high bits; the map indexes
        // buckets by the low ones.
        self.0.rotate_left(26)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, w: u64) {
        self.0 = self.0.wrapping_add(w).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

#[derive(Clone)]
struct KeyedWords(u64);

impl Default for KeyedWords {
    fn default() -> Self {
        KeyedWords(process_seed())
    }
}

impl BuildHasher for KeyedWords {
    type Hasher = WordHasher;
    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.0)
    }
}

/// `Node::value` of a node without a cached value.
const NO_VALUE: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Node {
    kind: ExprKind,
    flags: u8,
    /// For an all-constant composite node (structural `Mul`, comparisons
    /// and what is built on them), the index of its value in
    /// `Storage::values`; otherwise [`NO_VALUE`].
    value: u32,
}

/// Id-indexed visit marks: [`Marks::reset`] starts a new visit in O(1)
/// by bumping an epoch, so a walk touches only what it reaches.
#[derive(Clone, Default)]
pub(crate) struct Marks {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Marks {
    /// Forgets every mark and makes room for ids below `len`.
    pub(crate) fn reset(&mut self, len: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.clear();
            self.epoch = 1;
        }
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
        }
    }

    /// Marks `id`; false if it already was.
    pub(crate) fn insert(&mut self, id: ExprId) -> bool {
        let s = &mut self.stamp[id.index()];
        if *s == self.epoch {
            return false;
        }
        *s = self.epoch;
        true
    }

    pub(crate) fn contains(&self, id: ExprId) -> bool {
        self.stamp.get(id.index()) == Some(&self.epoch)
    }

    /// Drops the storage if it grew past [`MAX_POOLED_NODES`], so a
    /// recycled table does not pin one giant function's memory.
    pub(crate) fn recycle(&mut self) {
        if self.stamp.capacity() > MAX_POOLED_NODES {
            *self = Marks::default();
        }
    }
}

/// Scratch space of the arena's walks.
#[derive(Clone, Default)]
struct Visit {
    seen: Marks,
    stack: Vec<ExprId>,
}

#[derive(Clone, Default)]
struct Storage {
    nodes: Vec<Node>,
    values: Vec<U256>,
    ids: HashMap<ExprKind, ExprId, KeyedWords>,
    visit: RefCell<Visit>,
}

/// The expressions of one function exploration (see the module docs).
///
/// Ids are only meaningful in the arena that issued them. The arena's
/// walks are not reentrant: a walk's callback must not start another walk
/// on the same arena.
#[derive(Clone, Default)]
pub struct ExprArena {
    s: Storage,
}

impl ExprArena {
    /// An empty arena, on the storage the thread's last dropped arena
    /// left behind when there is one.
    pub fn new() -> Self {
        ExprArena {
            s: POOL.with(Cell::take).unwrap_or_default(),
        }
    }

    /// Number of distinct nodes.
    pub fn len(&self) -> usize {
        self.s.nodes.len()
    }

    /// True if no node was built yet.
    pub fn is_empty(&self) -> bool {
        self.s.nodes.is_empty()
    }

    /// The node's shape, for pattern matching.
    pub fn kind(&self, id: ExprId) -> &ExprKind {
        &self.s.nodes[id.index()].kind
    }

    fn flags(&self, id: ExprId) -> u8 {
        self.s.nodes[id.index()].flags
    }

    /// The one node of this shape, built on first use.
    fn intern(&mut self, kind: ExprKind) -> ExprId {
        let Storage {
            nodes, values, ids, ..
        } = &mut self.s;
        match ids.entry(kind) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = ExprId(u32::try_from(nodes.len()).expect("under 2^32 nodes per arena"));
                let flags = flags_of(nodes, &kind);
                let value = if flags & DEP_SYMBOLIC == 0 && !matches!(kind, ExprKind::Const(_)) {
                    values.push(fold_composite(nodes, values, &kind));
                    (values.len() - 1) as u32
                } else {
                    NO_VALUE
                };
                nodes.push(Node { kind, flags, value });
                *e.insert(id)
            }
        }
    }

    /// The constant zero.
    pub fn zero(&mut self) -> ExprId {
        self.constant(U256::ZERO)
    }

    /// A `u64` constant.
    pub fn c64(&mut self, v: u64) -> ExprId {
        self.constant(U256::from(v))
    }

    /// A [`U256`] constant.
    pub fn constant(&mut self, v: U256) -> ExprId {
        self.intern(ExprKind::Const(v))
    }

    /// `CALLDATALOAD(loc)`.
    pub fn calldata_word(&mut self, loc: ExprId) -> ExprId {
        self.intern(ExprKind::CalldataWord(loc))
    }

    /// `CALLDATASIZE`.
    pub fn calldata_size(&mut self) -> ExprId {
        self.intern(ExprKind::CalldataSize)
    }

    /// The free symbol with the given id.
    pub fn free_sym(&mut self, id: u32) -> ExprId {
        self.intern(ExprKind::FreeSym(id))
    }

    /// Builds a binary node, folding when both operands are constants and
    /// the operator is *location-irrelevant folding-safe*. Additions of
    /// constants are folded so concrete memory addresses stay computable;
    /// `Mul` is left structural (the ×32 evidence rules R2/R7 key on),
    /// even `0 × k` — first-iteration loop bodies still carry the stride.
    pub fn bin(&mut self, op: BinOp, a: ExprId, b: ExprId) -> ExprId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            // Mul stays structural (the ×32 evidence of R2/R7); comparisons
            // stay structural so concrete loop guards (`i < 3` with a
            // concrete counter) remain visible to the rules. Everything
            // else folds so memory addresses stay computable.
            let keep = matches!(
                op,
                BinOp::Mul | BinOp::Lt | BinOp::Gt | BinOp::SLt | BinOp::SGt
            );
            if !keep {
                return self.constant(apply_binop(op, x, y));
            }
        }
        self.intern(ExprKind::Binary(op, a, b))
    }

    /// Builds a unary node with constant folding.
    pub fn un(&mut self, op: UnOp, a: ExprId) -> ExprId {
        if let Some(x) = self.as_const(a) {
            return self.constant(apply_unop(op, x));
        }
        self.intern(ExprKind::Unary(op, a))
    }

    /// The constant value, if the node is a constant.
    pub fn as_const(&self, id: ExprId) -> Option<U256> {
        match self.kind(id) {
            ExprKind::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// The node's value if every leaf below it is constant. O(1): the
    /// value of an all-constant composite is computed when it is built.
    pub fn eval(&self, id: ExprId) -> Option<U256> {
        let n = &self.s.nodes[id.index()];
        if n.flags & DEP_SYMBOLIC != 0 {
            return None;
        }
        match n.kind {
            ExprKind::Const(v) => Some(v),
            _ => Some(self.s.values[n.value as usize]),
        }
    }

    /// True if any subexpression is a `CALLDATALOAD` (the value depends on
    /// the call data beyond its size). O(1): cached at construction.
    pub fn depends_on_calldata(&self, id: ExprId) -> bool {
        self.flags(id) & DEP_CALLDATA != 0
    }

    /// True if any subexpression is `CALLDATASIZE`. O(1).
    pub fn depends_on_calldatasize(&self, id: ExprId) -> bool {
        self.flags(id) & DEP_CDSIZE != 0
    }

    /// True if any subexpression masks a calldata-derived value — an
    /// `AND` with a constant operand or an equal-amount shift pair
    /// (R16's discriminator). O(1).
    pub fn contains_masked_calldata(&self, id: ExprId) -> bool {
        self.flags(id) & DEP_MASKED != 0
    }

    /// Visits every *distinct* node reachable from `root` once, in
    /// pre-order (a node, then its first operand's subtree, then the
    /// second's).
    pub fn walk(&self, root: ExprId, mut f: impl FnMut(ExprId, &ExprKind)) {
        self.walk_pruned(root, |id, kind| {
            f(id, kind);
            true
        });
    }

    /// [`ExprArena::walk`] that descends below a node only when `f`
    /// returns true for it. A node shared by many parents is still
    /// visited once, so the walk is linear in the DAG, not the tree.
    pub(crate) fn walk_pruned(&self, root: ExprId, mut f: impl FnMut(ExprId, &ExprKind) -> bool) {
        let mut visit = self.s.visit.borrow_mut();
        let Visit { seen, stack } = &mut *visit;
        seen.reset(self.len());
        stack.clear();
        stack.push(root);
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let kind = self.kind(id);
            if !f(id, kind) {
                continue;
            }
            match *kind {
                ExprKind::CalldataWord(a) | ExprKind::Unary(_, a) => stack.push(a),
                ExprKind::Binary(_, a, b) => {
                    stack.push(b);
                    stack.push(a);
                }
                _ => {}
            }
        }
    }

    /// Visits each distinct node outside every nested `CalldataWord`
    /// once: a load's location belongs to *another* value's addressing,
    /// so only the structure outside every load says how this location
    /// itself is indexed.
    pub(crate) fn walk_outside_loads(&self, root: ExprId, mut f: impl FnMut(&ExprKind)) {
        self.walk_pruned(root, |_, kind| {
            if matches!(kind, ExprKind::CalldataWord(_)) {
                return false;
            }
            f(kind);
            true
        });
    }

    /// The location of every `CALLDATALOAD` node, outermost first (an
    /// inner load inside another load's location is also reported).
    pub fn calldata_locs(&self, root: ExprId) -> Vec<ExprId> {
        let mut out = Vec::new();
        self.calldata_locs_into(root, &mut out);
        out
    }

    /// [`ExprArena::calldata_locs`], appended to `out`.
    pub(crate) fn calldata_locs_into(&self, root: ExprId, out: &mut Vec<ExprId>) {
        self.walk(root, |_, k| {
            if let ExprKind::CalldataWord(loc) = *k {
                out.push(loc);
            }
        });
    }

    /// Every free-symbol id in the expression, sorted and deduplicated.
    pub fn free_syms(&self, root: ExprId) -> Vec<u32> {
        let mut out = Vec::new();
        self.walk(root, |_, k| {
            if let ExprKind::FreeSym(s) = *k {
                out.push(s);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// True if some binary `op` node anywhere has the constant `k` as an
    /// operand (R2's `exp(loc) ∘ (32×)`, R8's `x + 31`).
    pub fn contains_op_by(&self, root: ExprId, op: BinOp, k: u64) -> bool {
        let kc = U256::from(k);
        let mut found = false;
        self.walk(root, |_, n| {
            if let ExprKind::Binary(o, a, b) = *n {
                if o == op && (self.as_const(a) == Some(kc) || self.as_const(b) == Some(kc)) {
                    found = true;
                }
            }
        });
        found
    }

    /// True if the expression contains a multiplication by the constant
    /// `k` anywhere (rule R2's `exp(loc) ∘ (32×)` check).
    pub fn contains_mul_by(&self, root: ExprId, k: u64) -> bool {
        self.contains_op_by(root, BinOp::Mul, k)
    }

    /// True if `needle` occurs as a subexpression (rule notation
    /// `exp(p) ∘ q`). A root below `needle` in id order cannot contain it.
    pub fn contains(&self, root: ExprId, needle: ExprId) -> bool {
        if root < needle {
            return false;
        }
        let mut found = false;
        self.walk(root, |id, _| found |= id == needle);
        found
    }

    /// True if some `CalldataWord` node *other than* `needle` has `needle`
    /// inside its location — i.e. there is an intermediate load between
    /// this expression and `needle`. The complement of the rules' "one
    /// level" relation.
    pub fn has_load_between(&self, root: ExprId, needle: ExprId) -> bool {
        if root < needle {
            return false;
        }
        // Only nodes at or above the needle can contain it: visit those
        // reachable from the root children first, and record in `has`
        // (indexed from the needle) whose subtree contains the needle.
        let mut order = Vec::new();
        self.walk(root, |id, _| {
            if id >= needle {
                order.push(id);
            }
        });
        order.sort_unstable();
        let mut has = vec![false; root.index() - needle.index() + 1];
        let contains = |has: &[bool], id: ExprId| id >= needle && has[id.index() - needle.index()];
        for id in order {
            let (below, cword) = match *self.kind(id) {
                ExprKind::CalldataWord(loc) => (contains(&has, loc), true),
                ExprKind::Unary(_, a) => (contains(&has, a), false),
                ExprKind::Binary(_, a, b) => (contains(&has, a) || contains(&has, b), false),
                _ => (false, false),
            };
            if cword && below && id != needle {
                return true;
            }
            has[id.index() - needle.index()] = below || id == needle;
        }
        false
    }

    /// The sum of all constant addends reachable through `Add` nodes from
    /// the root — e.g. `(CDW(4) + 36) + i*32` yields 36. Used to strip the
    /// selector/num skip from item locations. An addend shared by several
    /// `Add`s counts once per path to it, as a tree would count it
    /// (`(x + 4) + (x + 4)` yields 8), but each node is summed once, by
    /// id, so a deeply shared DAG costs its size, not its tree size.
    pub fn const_addend(&self, id: ExprId) -> U256 {
        match *self.kind(id) {
            ExprKind::Const(v) => return v,
            ExprKind::Binary(BinOp::Add, ..) => {}
            _ => return U256::ZERO,
        }
        let mut order = Vec::new();
        self.walk_pruned(id, |n, kind| {
            order.push(n);
            matches!(kind, ExprKind::Binary(BinOp::Add, ..))
        });
        // Children have smaller ids, so ascending id order sums each
        // node after its operands; the root has the largest id.
        order.sort_unstable();
        let mut sums: Vec<U256> = Vec::with_capacity(order.len());
        for &n in &order {
            let sum_of = |x: ExprId| sums[order.binary_search(&x).expect("operand was walked")];
            let sum = match *self.kind(n) {
                ExprKind::Const(v) => v,
                ExprKind::Binary(BinOp::Add, a, b) => sum_of(a) + sum_of(b),
                _ => U256::ZERO,
            };
            sums.push(sum);
        }
        sums.pop().expect("the root was walked")
    }

    /// Renders the expression (depth-limited: deep shared DAGs expand
    /// exponentially as trees, so nodes past depth 12 print as `…#id`).
    pub fn show(&self, id: ExprId) -> Shown<'_> {
        Shown { arena: self, id }
    }
}

impl Drop for ExprArena {
    /// Clears the storage and keeps it for the thread's next arena,
    /// unless it never grew (an unused default arena must not displace a
    /// warm one) or outgrew the cap.
    fn drop(&mut self) {
        if self.s.ids.capacity() == 0 || self.s.ids.capacity() > MAX_POOLED_NODES {
            return;
        }
        let mut s = std::mem::take(&mut self.s);
        s.nodes.clear();
        s.values.clear();
        s.ids.clear();
        // Thread teardown may already have destroyed the pool.
        let _ = POOL.try_with(|p| p.set(Some(s)));
    }
}

impl fmt::Debug for ExprArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.s.nodes.iter().map(|n| &n.kind))
            .finish()
    }
}

/// Dependency flags of a new node from its children's cached flags — O(1).
fn flags_of(nodes: &[Node], kind: &ExprKind) -> u8 {
    let flags = |id: ExprId| nodes[id.index()].flags;
    let as_const = |id: ExprId| match nodes[id.index()].kind {
        ExprKind::Const(v) => Some(v),
        _ => None,
    };
    match *kind {
        ExprKind::Const(_) => 0,
        ExprKind::FreeSym(_) => DEP_FREESYM,
        ExprKind::CalldataWord(loc) => flags(loc) | DEP_CALLDATA,
        ExprKind::CalldataSize => DEP_CDSIZE,
        ExprKind::Unary(_, a) => flags(a),
        ExprKind::Binary(op, a, b) => {
            let mut f = flags(a) | flags(b);
            match op {
                BinOp::And
                    if (as_const(a).is_some() && flags(b) & DEP_CALLDATA != 0)
                        || (as_const(b).is_some() && flags(a) & DEP_CALLDATA != 0) =>
                {
                    f |= DEP_MASKED;
                }
                // Shift-pair masks: `(x shl k) shr k` and friends, with the
                // shift amounts equal constants (operands are normalised to
                // `(value, amount)` order).
                BinOp::Shr | BinOp::Shl => {
                    if let (ExprKind::Binary(BinOp::Shl | BinOp::Shr, x, k2), Some(kc)) =
                        (nodes[a.index()].kind, as_const(b))
                    {
                        if as_const(k2) == Some(kc) && flags(x) & DEP_CALLDATA != 0 {
                            f |= DEP_MASKED;
                        }
                    }
                }
                _ => {}
            }
            f
        }
    }
}

/// The value of a new all-constant composite node, from its children's
/// constants or cached values.
fn fold_composite(nodes: &[Node], values: &[U256], kind: &ExprKind) -> U256 {
    let value = |id: ExprId| {
        let n = &nodes[id.index()];
        match n.kind {
            ExprKind::Const(v) => v,
            _ => values[n.value as usize],
        }
    };
    match *kind {
        ExprKind::Binary(op, a, b) => apply_binop(op, value(a), value(b)),
        ExprKind::Unary(op, a) => apply_unop(op, value(a)),
        _ => unreachable!("only operator nodes are all-constant composites"),
    }
}

/// Applies a binary operator to concrete values with EVM semantics.
pub fn apply_binop(op: BinOp, a: U256, b: U256) -> U256 {
    let truth = |t: bool| if t { U256::ONE } else { U256::ZERO };
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::SDiv => a.signed_div(b),
        BinOp::Mod => a % b,
        BinOp::SMod => a.signed_rem(b),
        BinOp::Exp => a.wrapping_pow(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        // Normalised (value, amount) order.
        BinOp::Shl => a << b,
        BinOp::Shr => a >> b,
        BinOp::Sar => a.sar(b),
        BinOp::Byte => a.byte(b),
        BinOp::SignExtend => a.sign_extend(b),
        BinOp::Lt => truth(a < b),
        BinOp::Gt => truth(a > b),
        BinOp::SLt => truth(a.signed_cmp(&b).is_lt()),
        BinOp::SGt => truth(a.signed_cmp(&b).is_gt()),
        BinOp::Eq => truth(a == b),
    }
}

fn apply_unop(op: UnOp, a: U256) -> U256 {
    match op {
        UnOp::IsZero if a.is_zero() => U256::ONE,
        UnOp::IsZero => U256::ZERO,
        UnOp::Not => !a,
    }
}

/// A node rendered through its arena ([`ExprArena::show`]).
pub struct Shown<'a> {
    arena: &'a ExprArena,
    id: ExprId,
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(a: &ExprArena, id: ExprId, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if depth > 12 {
                return write!(f, "…#{}", id.0);
            }
            match *a.kind(id) {
                ExprKind::Const(v) => write!(f, "0x{:x}", v),
                ExprKind::CalldataWord(loc) => {
                    write!(f, "cd[")?;
                    go(a, loc, depth + 1, f)?;
                    write!(f, "]")
                }
                ExprKind::CalldataSize => write!(f, "cdsize"),
                ExprKind::FreeSym(s) => write!(f, "sym{}", s),
                ExprKind::Unary(op, x) => {
                    write!(f, "{:?}(", op)?;
                    go(a, x, depth + 1, f)?;
                    write!(f, ")")
                }
                ExprKind::Binary(op, x, y) => {
                    write!(f, "(")?;
                    go(a, x, depth + 1, f)?;
                    write!(f, " {:?} ", op)?;
                    go(a, y, depth + 1, f)?;
                    write!(f, ")")
                }
            }
        }
        go(self.arena, self.id, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::any;

    #[test]
    fn eval_folds_constants() {
        let mut a = ExprArena::new();
        let (c4, c38) = (a.c64(4), a.c64(38));
        let e = a.bin(BinOp::Add, c4, c38);
        assert_eq!(a.as_const(e), Some(U256::from(42u64)));
        let (c6, c7) = (a.c64(6), a.c64(7));
        let m = a.bin(BinOp::Mul, c6, c7);
        // Mul stays structural but still evaluates.
        assert!(a.as_const(m).is_none());
        assert_eq!(a.eval(m), Some(U256::from(42u64)));
        // So does a composite built on it.
        let one = a.c64(1);
        let lt = a.bin(BinOp::Lt, m, one);
        let sum = a.bin(BinOp::Add, lt, m);
        assert_eq!(a.eval(sum), Some(U256::from(42u64)));
    }

    #[test]
    fn eval_none_on_symbols() {
        let mut a = ExprArena::new();
        let c4 = a.c64(4);
        let w = a.calldata_word(c4);
        let one = a.c64(1);
        let e = a.bin(BinOp::Add, w, one);
        assert_eq!(a.eval(e), None);
        assert!(a.depends_on_calldata(e));
    }

    #[test]
    fn mul_structure_preserved_with_zero_counter() {
        // First loop iteration: i = 0, loc = 4 + 0*32. The ×32 evidence
        // must survive.
        let mut a = ExprArena::new();
        let (c0, c32, c4) = (a.zero(), a.c64(32), a.c64(4));
        let m = a.bin(BinOp::Mul, c0, c32);
        let loc = a.bin(BinOp::Add, c4, m);
        assert!(a.contains_mul_by(loc, 32));
        assert_eq!(a.eval(loc), Some(U256::from(4u64)));
    }

    #[test]
    fn contains_subexpression() {
        let mut a = ExprArena::new();
        let c4 = a.c64(4);
        let offset = a.calldata_word(c4);
        let c36 = a.c64(36);
        let loc = a.bin(BinOp::Add, offset, c36);
        assert!(a.contains(loc, offset));
        let size = a.calldata_size();
        assert!(!a.contains(loc, size));
        assert!(!a.contains(offset, loc));
    }

    #[test]
    fn calldata_locs_collects_nested() {
        // cd[cd[4] + 4]: outer load's loc contains an inner load.
        let mut a = ExprArena::new();
        let c4 = a.c64(4);
        let inner = a.calldata_word(c4);
        let loc = a.bin(BinOp::Add, inner, c4);
        let outer = a.calldata_word(loc);
        assert_eq!(a.calldata_locs(outer), vec![loc, c4]);
    }

    #[test]
    fn has_load_between_sees_intermediate_loads() {
        // o = cd[4]; item = cd[o + 32]; deep = cd[item + 64].
        let mut a = ExprArena::new();
        let c4 = a.c64(4);
        let o = a.calldata_word(c4);
        let c32 = a.c64(32);
        let item_loc = a.bin(BinOp::Add, o, c32);
        let item = a.calldata_word(item_loc);
        let c64 = a.c64(64);
        let deep_loc = a.bin(BinOp::Add, item, c64);
        assert!(!a.has_load_between(item_loc, o));
        assert!(a.has_load_between(deep_loc, o));
        assert!(!a.has_load_between(deep_loc, item));
        assert!(!a.has_load_between(c4, o));
    }

    #[test]
    fn free_syms_dedup() {
        let mut a = ExprArena::new();
        let s = a.free_sym(3);
        let c32 = a.c64(32);
        let m = a.bin(BinOp::Mul, s, c32);
        let e = a.bin(BinOp::Add, s, m);
        assert_eq!(a.free_syms(e), vec![3]);
    }

    #[test]
    fn const_addend_sums_through_adds() {
        let mut a = ExprArena::new();
        let c4 = a.c64(4);
        let w = a.calldata_word(c4);
        let c36 = a.c64(36);
        let head = a.bin(BinOp::Add, w, c36);
        let s = a.free_sym(0);
        let c32 = a.c64(32);
        let m = a.bin(BinOp::Mul, s, c32);
        let e = a.bin(BinOp::Add, head, m);
        assert_eq!(a.const_addend(e), U256::from(36u64));
        // A shared addend counts once per path to it, as in the tree.
        let x4 = a.bin(BinOp::Add, w, c4);
        let twice = a.bin(BinOp::Add, x4, x4);
        assert_eq!(a.const_addend(twice), U256::from(8u64));
        // Doubled 40 times over one shared node: 4 · 2⁴⁰, in linear time.
        let mut d = x4;
        for _ in 0..40 {
            d = a.bin(BinOp::Add, d, d);
        }
        assert_eq!(a.const_addend(d), U256::from(4u64 << 40));
        // Sums wrap like the EVM's ADD.
        let max = a.constant(U256::MAX);
        let wrapped = a.bin(BinOp::Add, max, c4);
        let top = a.bin(BinOp::Add, wrapped, w);
        assert_eq!(a.const_addend(top), U256::from(3u64));
    }

    #[test]
    fn dag_sharing_stays_cheap() {
        // s_{k+1} = s_k + cd[s_k]: tree size 2^k, DAG size k. All core
        // operations must finish instantly at depth 64.
        let mut a = ExprArena::new();
        let c4 = a.c64(4);
        let base = a.calldata_word(c4);
        let mut s = base;
        for _ in 0..64 {
            let loaded = a.calldata_word(s);
            s = a.bin(BinOp::Add, s, loaded);
        }
        assert!(a.depends_on_calldata(s));
        assert!(!a.depends_on_calldatasize(s));
        assert!(a.contains(s, base));
        assert!(a.has_load_between(s, base));
        assert_eq!(a.calldata_locs(s).len(), 65);
        let shown = a.show(s).to_string();
        assert!(shown.contains('…'), "{shown}");
        assert!(a.eval(s).is_none());
    }

    #[test]
    fn apply_binop_signed_cases() {
        let neg1 = U256::MAX;
        assert_eq!(apply_binop(BinOp::SLt, neg1, U256::ONE), U256::ONE);
        assert_eq!(apply_binop(BinOp::SGt, neg1, U256::ONE), U256::ZERO);
        assert_eq!(apply_binop(BinOp::Lt, neg1, U256::ONE), U256::ZERO);
    }

    #[test]
    fn unary_folding() {
        let mut a = ExprArena::new();
        let z = a.zero();
        let nz = a.un(UnOp::IsZero, z);
        assert_eq!(a.as_const(nz), Some(U256::ONE));
        let c7 = a.c64(7);
        let once = a.un(UnOp::IsZero, c7);
        let twice = a.un(UnOp::IsZero, once);
        assert_eq!(a.as_const(twice), Some(U256::ONE));
        let sym = a.free_sym(1);
        let e = a.un(UnOp::IsZero, sym);
        assert!(a.as_const(e).is_none());
    }

    #[test]
    fn structurally_equal_nodes_share_an_id() {
        let mut a = ExprArena::new();
        let build = |a: &mut ExprArena, k: u64| {
            let c4 = a.c64(4);
            let w = a.calldata_word(c4);
            let ck = a.c64(k);
            a.bin(BinOp::Add, w, ck)
        };
        let x = build(&mut a, 36);
        let len = a.len();
        let y = build(&mut a, 36);
        assert_eq!(x, y);
        assert_eq!(a.len(), len, "a rebuilt twin allocates nothing");
        // Different expressions stay distinct.
        let z = build(&mut a, 68);
        assert_ne!(x, z);
        // Ids are topological: children before parents.
        let ExprKind::Binary(_, l, r) = *a.kind(x) else {
            panic!("expected a binary node")
        };
        assert!(l < x && r < x);
    }

    #[test]
    fn a_recycled_arena_starts_empty_and_rebuilds_exactly() {
        let mut a = ExprArena::new();
        let c4 = a.c64(4);
        let w = a.calldata_word(c4);
        let c32 = a.c64(32);
        let m = a.bin(BinOp::Mul, w, c32);
        let shown = a.show(m).to_string();
        drop(a);
        // The next arena on this thread reuses the cleared storage: no
        // node of the last exploration survives, and identity restarts.
        let mut b = ExprArena::new();
        assert!(b.is_empty());
        let c4 = b.c64(4);
        let w = b.calldata_word(c4);
        let c32 = b.c64(32);
        let m2 = b.bin(BinOp::Mul, w, c32);
        assert_eq!(m2, m);
        assert_eq!(b.show(m2).to_string(), shown);
        assert!(b.contains_mul_by(m2, 32));
    }

    #[test]
    fn oversized_storage_is_not_kept() {
        let mut a = ExprArena::new();
        for i in 0..(MAX_POOLED_NODES as u64 + 1) {
            a.c64(i);
        }
        drop(a);
        let b = ExprArena::new();
        assert!(b.s.ids.capacity() <= MAX_POOLED_NODES);
    }

    #[test]
    fn a_crafted_constant_gets_its_own_id() {
        // This constant collides with `0x20` under a 64-bit structural
        // hash whose last round is invertible: identity must not rest on
        // such a hash.
        let crafted =
            U256::from_hex("7a073c4333c76054000000000000000000000000000000000000000000000040")
                .expect("hex constant");
        let mut a = ExprArena::new();
        let small = a.c64(0x20);
        let big = a.constant(crafted);
        assert_ne!(small, big);
        assert_eq!(a.as_const(big), Some(crafted));
        assert_eq!(a.as_const(small), Some(U256::from(0x20u64)));
    }

    proptest::proptest! {
        #[test]
        fn constants_share_an_id_exactly_when_equal(
            (x0, x1, x2, x3) in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            (h2, h3) in (any::<u64>(), any::<u64>()),
            pick in any::<u64>(),
        ) {
            let x = U256([x0, x1, x2, x3]);
            // Equal pairs, pairs that differ only in their high limbs
            // (where a weak hash would bucket them together), and pairs
            // against a small offset-like constant.
            let y = match pick % 3 {
                0 => x,
                1 => U256([x0, x1, h2, h3]),
                _ => U256::from(x0 & 0xff),
            };
            let mut a = ExprArena::new();
            let (ix, iy) = (a.constant(x), a.constant(y));
            proptest::prop_assert_eq!(ix == iy, x == y);
            proptest::prop_assert_eq!(a.as_const(ix), Some(x));
            proptest::prop_assert_eq!(a.as_const(iy), Some(y));
        }
    }

    #[test]
    fn flags_propagate_through_operators() {
        let mut a = ExprArena::new();
        let c4 = a.c64(4);
        let c = a.calldata_word(c4);
        let s = a.calldata_size();
        let e = a.bin(BinOp::Sub, s, c);
        assert!(a.depends_on_calldata(e));
        assert!(a.depends_on_calldatasize(e));
        let sym = a.free_sym(9);
        let f = a.un(UnOp::IsZero, sym);
        assert!(!a.depends_on_calldata(f));
        assert!(!a.depends_on_calldatasize(f));
    }
}
