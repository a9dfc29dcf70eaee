//! The staged decision-tree matcher behind [`InferEngine::Tree`].
//!
//! The paper presents R1–R31 as one decision tree over calldata-access
//! features (Fig. 13), not 31 independent matchers probed per parameter.
//! This module implements that reading: [`TreeIndex::build`] makes a
//! single pass over the facts and compiles them into
//!
//! * **load groups** — distinct locations in first-load order, each with
//!   its constant offset (if any) pre-evaluated: the static-offset
//!   candidates of the tree's coarse stage;
//! * **per-location refinement summaries** ([`RefineSummary`]) — every
//!   `Use` fact is decoded once ([`DecodedUsage`]: mask width class, sign
//!   extension, compare/arithmetic context, Vyper range class) and folded
//!   into a feature bitset per location it names, so refinement later
//!   dispatches on the summary instead of re-scanning and re-decoding the
//!   use list per candidate;
//! * **node-membership tables** — id-indexed marks answering the shared
//!   prefix tests ("is this value a base of another load?", "does a copy
//!   read through it?") in O(1), where the per-rule engine re-walks every
//!   copy expression per candidate.
//!
//! The match stage then runs the same four coarse stages as the per-rule
//! reference (offset markers → constant-source copies → symbolic static
//! arrays → basic parameters) in the same order, so rule applications are
//! emitted in exactly the same sequence. The rare dynamic-shape paths
//! (R1/R2/R5–R10/R17/R19/R21–R23) intentionally share the reference
//! engine's predicate helpers (`const_guard_bounds`, `loop_bounds_for`,
//! `ExprArena::walk_outside_loads`, …): they run a handful of times per
//! contract, and sharing the code makes divergence structurally
//! impossible there.
//! What the tree engine compiles away is the hot path — group
//! construction, marker detection and refinement, which the profile shows
//! dominate (R4/R11/R12/R13 on basic parameters).
//!
//! ## Soundness of hoisting the shared prefix tests
//!
//! Every hoisted test is a pure function of the immutable
//! [`FunctionFacts`], so evaluating it at index-build time instead of at
//! each rule's probe site cannot change its value — only rule *emission*
//! is order-sensitive, and the match stage preserves the reference
//! emission order exactly. The two probes the tables replace are id tests
//! in the reference engine too (`ExprArena::contains` and id equality),
//! and arena ids are exact, so the precomputed tables answer them
//! identically. The refinement dispatch is sound because
//! [`RefineSummary::fold`] is idempotent and order-insensitive by
//! construction (minima and monotone flags), except for the one
//! order-sensitive rule pair in the reference — R27/R30's "first matching
//! range check wins" — which the summary preserves explicitly by tracking
//! the minimum use index ([`RefineSummary::first_uns`]).
//! [`refine_summary`] then mirrors the reference decision order test for
//! test, mapping each feature signature to a static rule slice.
//!
//! ## Key identity without strings
//!
//! A use fact names the locations it touches by [`ExprId`], the same ids
//! the load facts carry, so both engines match uses to loads by id
//! equality: no key is rendered, parsed or hashed, and since arena
//! identity is exact there are no collision odds to accept. The tree
//! engine resolves a location's summary through an id-indexed table.
//!
//! [`InferEngine::Tree`]: super::InferEngine::Tree

use super::{
    const_guard_bounds, const_offset, is_count_like, is_guard_bound, is_mul32, loop_bounds_for,
    signed_bound_matches, vyperise, Bound, Candidate, Language, RecoveredParams,
};
use crate::expr::{BinOp, ExprArena, ExprId, ExprKind, Marks, MAX_POOLED_NODES};
use crate::facts::{CopyFact, FunctionFacts, Usage};
use crate::rules::RuleId;
use sigrec_abi::AbiType;
use sigrec_evm::U256;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// An empty slot of an id-indexed table.
const NONE: u32 = u32::MAX;

/// Empties a recycled table, dropping its allocation when one giant
/// (possibly hostile) function grew it past what the arena itself keeps:
/// that memory must not stay pinned in thread-local storage.
fn recycle<T>(v: &mut Vec<T>) {
    if v.capacity() > MAX_POOLED_NODES {
        *v = Vec::new();
    } else {
        v.clear();
    }
}

thread_local! {
    /// Recycled index containers. A batch worker runs inference for
    /// thousands of functions back to back; rebuilding the index's tables
    /// and vectors from scratch each time spends more wall clock on the
    /// allocator than on the facts. Build takes a cleared index from here
    /// (capacity intact from the largest function seen so far), and
    /// [`TreeInference`]'s drop returns it.
    static IDX_POOL: Cell<Option<TreeIndex>> = const { Cell::new(None) };
    /// Same recycling for the lazily built dynamic-shape index.
    static DYN_POOL: Cell<Option<DynIndex>> = const { Cell::new(None) };
}

/// [`ExprArena::walk`] specialised for the index builders: the visit
/// marks are caller-supplied (reused across calls, or doubling as the
/// result set when accumulating a union), and traversal prunes
/// calldata-*independent* subtrees via the O(1) cached flag. The node
/// tables built with it are only ever probed for `CalldataWord` ids —
/// offset markers, containment, the between-loads test — and calldata
/// words occur exclusively inside dependent subtrees, so skipping the
/// (usually dominant) constant and symbolic arithmetic around them cannot
/// change any probe's answer.
fn walk_dep(arena: &ExprArena, e: ExprId, seen: &mut Marks, f: &mut impl FnMut(ExprId, &ExprKind)) {
    if !arena.depends_on_calldata(e) || !seen.insert(e) {
        return;
    }
    let kind = arena.kind(e);
    f(e, kind);
    match *kind {
        ExprKind::CalldataWord(a) | ExprKind::Unary(_, a) => walk_dep(arena, a, seen, f),
        ExprKind::Binary(_, a, b) => {
            walk_dep(arena, a, seen, f);
            walk_dep(arena, b, seen, f);
        }
        _ => {}
    }
}

/// Usage feature flags folded into [`RefineSummary::flags`].
const F_DBL_ISZERO: u8 = 1 << 0;
const F_BYTE: u8 = 1 << 1;
const F_SIGNED_OP: u8 = 1 << 2;
const F_ARITH: u8 = 1 << 3;
/// Any signed range check at all (→ R15 when no specific bound matches).
const F_SGN_ANY: u8 = 1 << 4;
/// A signed range check against ±2¹²⁷·10¹⁰ (Vyper `decimal`, R29).
const F_SGN_DECIMAL: u8 = 1 << 5;
/// A signed range check against ±2¹²⁷ (Vyper `int128`, R28).
const F_SGN_INT128: u8 = 1 << 6;

/// One `Use` fact decoded into the features the refinement tree branches
/// on. Decoding happens once per use at index-build time — most notably
/// the mask-width classification, which the per-rule engine re-derives
/// (scanning up to 64 candidate masks) every time a refinement touches
/// the use.
#[derive(Clone, Copy, Debug)]
enum DecodedUsage {
    /// No effect on refinement (e.g. a full-width mask).
    Inert,
    /// `AND` with a `k`-byte low mask, `k` < 32 (R11/R16).
    MaskLow(u32),
    /// `AND` with a `k`-byte high mask, `k` < 32 (R12).
    MaskHigh(u32),
    /// `SIGNEXTEND` from byte `b` (R13).
    SignExt(u64),
    /// Double-`ISZERO` boolean test (R14).
    DblIsZero,
    /// `BYTE` extraction (R17/R18/R26/R31 evidence).
    ByteExtract,
    /// Signed arithmetic/compare (R15).
    SignedOp,
    /// Unsigned arithmetic (defeats the R16 address reading).
    Arithmetic,
    /// Unsigned range check, classified against the R30/R27 constants.
    RangeUns { bool_like: bool, addr_like: bool },
    /// Signed range check, classified against the R28/R29 bounds.
    RangeSgn { decimal: bool, int128: bool },
}

/// The byte width of `m` if it is a low mask `2^(8k)-1` (`k` in 1..=32):
/// a run of set bits from bit 0 that spans whole bytes and is the only
/// thing set. O(1) on the four limbs where the reference's
/// `low_mask_bytes` compares against up to 32 candidate constants, but
/// accepting exactly the same mask set.
fn low_mask_width(m: &U256) -> Option<u32> {
    let l = &m.0;
    let mut bits = 0u32;
    let mut i = 0usize;
    while i < 4 && l[i] == u64::MAX {
        bits += 64;
        i += 1;
    }
    if i < 4 {
        let t = l[i].trailing_ones();
        // The partial limb must be exactly its trailing ones…
        if t > 0 && l[i] != (1u64 << t) - 1 {
            return None;
        }
        bits += t;
        // …and every higher limb must be clear.
        if l[i..].iter().skip(1).any(|&w| w != 0) || (t == 0 && l[i] != 0) {
            return None;
        }
    }
    (bits > 0 && bits.is_multiple_of(8)).then_some(bits / 8)
}

/// The byte width of `m` if it is a high mask (a whole-byte run of set
/// bits down from bit 255, nothing else set).
fn high_mask_width(m: &U256) -> Option<u32> {
    let l = &m.0;
    let mut bits = 0u32;
    let mut i = 3usize;
    while l[i] == u64::MAX {
        bits += 64;
        if i == 0 {
            return bits.is_multiple_of(8).then_some(bits / 8);
        }
        i -= 1;
    }
    let t = l[i].leading_ones();
    if t > 0 && l[i] != !(u64::MAX >> t) {
        return None;
    }
    bits += t;
    if l[..i].iter().any(|&w| w != 0) || (t == 0 && l[i] != 0) {
        return None;
    }
    (bits > 0 && bits.is_multiple_of(8)).then_some(bits / 8)
}

fn decode_usage(u: &Usage) -> DecodedUsage {
    match u {
        Usage::MaskAnd(m) => {
            // Low masks take precedence, mirroring `refine_from_usages`:
            // the all-ones mask is a 32-byte *low* mask and therefore
            // inert, never a high mask.
            if let Some(k) = low_mask_width(m) {
                if k < 32 {
                    return DecodedUsage::MaskLow(k);
                }
                return DecodedUsage::Inert;
            }
            if let Some(k) = high_mask_width(m) {
                if k < 32 {
                    return DecodedUsage::MaskHigh(k);
                }
            }
            DecodedUsage::Inert
        }
        Usage::SignExtendFrom(b) => DecodedUsage::SignExt(*b),
        Usage::DoubleIsZero => DecodedUsage::DblIsZero,
        Usage::ByteExtract => DecodedUsage::ByteExtract,
        Usage::SignedOp => DecodedUsage::SignedOp,
        Usage::Arithmetic => DecodedUsage::Arithmetic,
        Usage::RangeUnsigned(c) => DecodedUsage::RangeUns {
            bool_like: *c == U256::from(2u64),
            addr_like: *c == U256::ONE << 160u32,
        },
        Usage::RangeSigned(c) => {
            let int128_bound = U256::ONE << 127u32;
            let decimal_bound = int128_bound * U256::from(10_000_000_000u64);
            DecodedUsage::RangeSgn {
                decimal: signed_bound_matches(*c, decimal_bound),
                int128: signed_bound_matches(*c, int128_bound),
            }
        }
    }
}

/// The feature bitset refinement dispatches on: everything
/// `refine_from_usages` derives from a use list, folded associatively so
/// summaries can be merged across the offsets of a copied region. All
/// fold operations are idempotent (minima, monotone flags, min-index), so
/// a use reached through several keys or offsets counts once, exactly as
/// the reference engine's index dedup guarantees.
#[derive(Clone, Copy, Debug, Default)]
struct RefineSummary {
    /// Minimum low-mask width in bytes (< 32), if any (R11/R16).
    mask_low: Option<u32>,
    /// Minimum high-mask width in bytes (< 32), if any (R12).
    mask_high: Option<u32>,
    /// Minimum `SIGNEXTEND` source byte, if any (R13).
    signext: Option<u64>,
    /// `F_*` feature flags.
    flags: u8,
    /// The earliest unsigned range check matching the R30/R27 constants,
    /// as `(use index, matched the bool constant)`. The reference scans
    /// the use list in order and the *first* matching check wins, so the
    /// summary keeps the minimum use index rather than a flag.
    first_uns: Option<(u32, bool)>,
}

impl RefineSummary {
    fn fold(&mut self, use_idx: u32, d: DecodedUsage) {
        match d {
            DecodedUsage::Inert => {}
            DecodedUsage::MaskLow(k) => {
                self.mask_low = Some(self.mask_low.map_or(k, |p| p.min(k)));
            }
            DecodedUsage::MaskHigh(k) => {
                self.mask_high = Some(self.mask_high.map_or(k, |p| p.min(k)));
            }
            DecodedUsage::SignExt(b) => {
                self.signext = Some(self.signext.map_or(b, |p| p.min(b)));
            }
            DecodedUsage::DblIsZero => self.flags |= F_DBL_ISZERO,
            DecodedUsage::ByteExtract => self.flags |= F_BYTE,
            DecodedUsage::SignedOp => self.flags |= F_SIGNED_OP,
            DecodedUsage::Arithmetic => self.flags |= F_ARITH,
            DecodedUsage::RangeUns {
                bool_like,
                addr_like,
            } => {
                if (bool_like || addr_like) && self.first_uns.is_none_or(|(i, _)| use_idx < i) {
                    self.first_uns = Some((use_idx, bool_like));
                }
            }
            DecodedUsage::RangeSgn { decimal, int128 } => {
                self.flags |= F_SGN_ANY;
                if decimal {
                    self.flags |= F_SGN_DECIMAL;
                }
                if int128 {
                    self.flags |= F_SGN_INT128;
                }
            }
        }
    }
}

/// The refinement dispatch: feature signature → `(type, rules)`. Each arm
/// mirrors one test of `refine_from_usages` in the same order, and every
/// rule list is a static slice — the dispatch allocates nothing.
fn refine_summary(s: &RefineSummary) -> (AbiType, &'static [RuleId]) {
    if let Some(b) = s.signext {
        if b < 31 {
            return (AbiType::Int((8 * (b + 1)) as u16), &[RuleId::R13]);
        }
    }
    if s.flags & F_DBL_ISZERO != 0 {
        return (AbiType::Bool, &[RuleId::R14]);
    }
    if let Some(k) = s.mask_high {
        return (AbiType::FixedBytes(k as u8), &[RuleId::R12]);
    }
    if let Some(k) = s.mask_low {
        if k == 20 && s.flags & F_ARITH == 0 {
            return (AbiType::Address, &[RuleId::R11, RuleId::R16]);
        }
        return (AbiType::Uint((8 * k) as u16), &[RuleId::R11]);
    }
    if s.flags & F_SGN_DECIMAL != 0 {
        return (AbiType::Int(168), &[RuleId::R29]);
    }
    if s.flags & F_SGN_INT128 != 0 {
        return (AbiType::Int(128), &[RuleId::R28]);
    }
    if s.flags & (F_SIGNED_OP | F_SGN_ANY) != 0 {
        return (AbiType::Int(256), &[RuleId::R15]);
    }
    if let Some((_, bool_like)) = s.first_uns {
        return if bool_like {
            (AbiType::Bool, &[RuleId::R30])
        } else {
            (AbiType::Address, &[RuleId::R27])
        };
    }
    if s.flags & F_BYTE != 0 {
        return (AbiType::FixedBytes(32), &[RuleId::R18]);
    }
    (AbiType::Uint(256), &[])
}

/// One distinct load location, in first-load order (the dedup the
/// per-rule engine derives with an O(n²) location comparison per run).
struct Group {
    loc: ExprId,
    value: ExprId,
    /// The location's constant calldata offset, pre-evaluated. `None`
    /// keeps dynamic-offset candidates (symbolic or offset-rooted
    /// locations) out of every static-offset stage.
    const_pos: Option<u64>,
    /// Index into the summary pool for this location, resolved at build
    /// time so basic-parameter refinement needs no lookup.
    summary: Option<u32>,
}

/// The compiled form of one function's facts. Containers are recycled
/// through [`IDX_POOL`]; `Default` is the empty (allocation-free) index.
#[derive(Default)]
struct TreeIndex {
    groups: Vec<Group>,
    /// Every *calldata-dependent* node inside a load location (shared
    /// prefix test: "is this value addressed through?"). Restricting to
    /// calldata-dependent nodes is sound because the values probed are
    /// always calldata words, which cannot occur inside a
    /// calldata-independent expression (see [`walk_dep`]).
    referenced: Marks,
    /// Every node inside any copy's calldata-dependent source or length
    /// (shared prefix test: "does a copy read through this value?"),
    /// restricted the same way.
    copy_ref_nodes: Marks,
    /// Per-copy `[start, end)` ranges into `copy_src_arena`, for the
    /// which-copies-read-this-offset filter of the copied-parameter path.
    copy_src_ranges: Vec<(u32, u32)>,
    /// Sorted calldata-dependent node ids of every copy source, packed
    /// end to end (one allocation for all copies instead of one each).
    copy_src_arena: Vec<ExprId>,
    /// Folded refinement summaries, indexed by `entry_of`.
    entries: Vec<RefineSummary>,
    /// Location id → entry index ([`NONE`] for a location no use names).
    entry_of: Vec<u32>,
    /// Per-use decoded features, for re-folding over a copied region —
    /// only kept when the function copies calldata (the sole consumer is
    /// the static-region element refinement of R6/R9).
    decoded: Vec<DecodedUsage>,
    /// Use indices by constant offset, gated the same way.
    uses_by_offset: BTreeMap<u64, Vec<u32>>,
    /// Reused visit marks: location dedup in the group pass, then the
    /// per-copy walk memo.
    scratch: Marks,
    /// Recycled candidate buffer for [`TreeInference::run`] (drained into
    /// the result each run, so only its capacity survives here).
    cand_pool: Vec<Candidate>,
    /// Recycled marker-group buffer for the same run loop.
    marker_pool: Vec<usize>,
    /// Recycled deep-view buffer for the dynamic classification path.
    deep_pool: Vec<DeepView>,
}

impl TreeIndex {
    fn build(facts: &FunctionFacts) -> Self {
        let mut idx = IDX_POOL.with(|p| p.take()).unwrap_or_default();
        idx.clear();
        idx.fill(facts);
        idx
    }

    fn clear(&mut self) {
        recycle(&mut self.groups);
        self.referenced.recycle();
        self.copy_ref_nodes.recycle();
        recycle(&mut self.copy_src_ranges);
        recycle(&mut self.copy_src_arena);
        recycle(&mut self.entries);
        recycle(&mut self.entry_of);
        recycle(&mut self.decoded);
        self.uses_by_offset.clear();
        self.scratch.recycle();
        self.cand_pool.clear();
        self.marker_pool.clear();
        self.deep_pool.clear();
    }

    /// The sorted dependent-node ids of copy `i`'s source.
    fn copy_src(&self, i: usize) -> &[ExprId] {
        let (a, b) = self.copy_src_ranges[i];
        &self.copy_src_arena[a as usize..b as usize]
    }

    fn fill(&mut self, facts: &FunctionFacts) {
        let arena = &facts.arena;
        let n = arena.len();
        self.entry_of.resize(n, NONE);
        // Stage 0a: decode every use once and fold it into its keys'
        // summaries. Duplicate keys within one use fold idempotently, so
        // no dedup pass is needed (the offset table still dedups: its
        // consumer counts indices, and same-use pushes are consecutive).
        let has_copies = !facts.copies.is_empty();
        for (i, u) in facts.uses.iter().enumerate() {
            let d = decode_usage(&u.usage);
            if has_copies {
                self.decoded.push(d);
            }
            for &k in &u.keys {
                let slot = &mut self.entry_of[k.index()];
                if *slot == NONE {
                    *slot = self.entries.len() as u32;
                    self.entries.push(RefineSummary::default());
                }
                self.entries[*slot as usize].fold(i as u32, d);
                if has_copies {
                    if let Some(o) = const_offset(arena, k) {
                        self.uses_by_offset.entry(o).or_default().push(i as u32);
                    }
                }
            }
        }
        for v in self.uses_by_offset.values_mut() {
            v.dedup();
        }

        // Stage 0b: load groups (location-deduped, first-load order) and
        // the referenced-node set. `referenced` doubles as the walk memo:
        // it *is* the union of visited (calldata-dependent) nodes, so
        // subtrees shared across loads walk once.
        self.referenced.reset(n);
        self.scratch.reset(n);
        self.groups.reserve(facts.loads.len());
        for l in &facts.loads {
            walk_dep(arena, l.loc, &mut self.referenced, &mut |_, _| {});
            if !self.scratch.insert(l.loc) {
                continue;
            }
            let entry = self.entry_of[l.loc.index()];
            self.groups.push(Group {
                loc: l.loc,
                value: l.value,
                const_pos: arena.eval(l.loc).and_then(|v| v.as_u64()),
                summary: (entry != NONE).then_some(entry),
            });
        }

        // Stage 0c: copy node sets (skipped entirely for the common
        // copy-free function, and calldata-independent expressions stay
        // out for the same reason as `referenced`).
        let TreeIndex {
            copy_ref_nodes,
            copy_src_ranges,
            copy_src_arena,
            scratch,
            ..
        } = self;
        copy_ref_nodes.reset(n);
        for c in &facts.copies {
            let s0 = copy_src_arena.len();
            // Per-copy memo (the source range must be per copy), range
            // already deduped by it.
            scratch.reset(n);
            walk_dep(arena, c.src, scratch, &mut |id, _| copy_src_arena.push(id));
            copy_src_arena[s0..].sort_unstable();
            for &id in &copy_src_arena[s0..] {
                copy_ref_nodes.insert(id);
            }
            walk_dep(arena, c.len, copy_ref_nodes, &mut |_, _| {});
            copy_src_ranges.push((s0 as u32, copy_src_arena.len() as u32));
        }
    }
}

/// One calldata-dependent load, compiled for the dynamic-shape paths.
/// Everything the reference's per-probe helpers re-derive by walking —
/// containment, the "one level" relation, outside-load symbols, the ×32
/// stride — is answered from these precomputed tables instead.
struct DynLoad {
    /// Index into `facts.loads`.
    load: u32,
    /// The load's value, for the reference's `l.value != o` self-load
    /// filter.
    value: ExprId,
    /// Range in [`DynIndex::node_arena`]: sorted ids of the location's
    /// calldata-dependent nodes ([`walk_dep`]), so `contains(loc, o)`
    /// becomes a binary search.
    nodes: (u32, u32),
    /// Range in [`DynIndex::cw_arena`]: indices into [`DynIndex::cwords`]
    /// of every `CalldataWord` node in the location's dag (nested ones
    /// included).
    cwords: (u32, u32),
    /// Range in [`DynIndex::sym_arena`]: `syms_outside(loc)` — free
    /// symbols outside nested loads, sorted and deduped.
    syms: (u32, u32),
    /// `mul32_outside(loc)` — a ×32 stride outside nested loads.
    mul32_out: bool,
}

/// A distinct `CalldataWord` node occurring inside some load location.
struct CwordInfo {
    id: ExprId,
    /// Range in [`DynIndex::cw_node_arena`]: sorted ids of the word's own
    /// location subtree (pruned like [`DynLoad::nodes`]), answering
    /// `ExprArena::has_load_between`'s "does this intermediate load's
    /// location contain the needle?" by binary search.
    loc_nodes: (u32, u32),
}

/// Compiled tables for the dynamic-shape rules (R1/R2/R5–R10/R17/R19/
/// R21–R23), built lazily on the first offset-marker classification —
/// functions without dynamic parameters (the vast majority) never pay
/// for it. All variable-length per-load data lives in shared arenas
/// (ranges, not nested `Vec`s) so a pooled instance rebuilds with zero
/// allocations in the steady state.
#[derive(Default)]
struct DynIndex {
    loads: Vec<DynLoad>,
    cwords: Vec<CwordInfo>,
    node_arena: Vec<ExprId>,
    cw_arena: Vec<u32>,
    sym_arena: Vec<u32>,
    cw_node_arena: Vec<ExprId>,
    /// `CalldataWord` id → index into `cwords` ([`NONE`] until seen).
    cword_of: Vec<u32>,
    scratch: Marks,
}

impl DynIndex {
    fn build(facts: &FunctionFacts) -> Self {
        let mut idx = DYN_POOL.with(|p| p.take()).unwrap_or_default();
        idx.clear();
        idx.fill(facts);
        idx
    }

    fn clear(&mut self) {
        recycle(&mut self.loads);
        recycle(&mut self.cwords);
        recycle(&mut self.node_arena);
        recycle(&mut self.cw_arena);
        recycle(&mut self.sym_arena);
        recycle(&mut self.cw_node_arena);
        recycle(&mut self.cword_of);
        self.scratch.recycle();
    }

    fn fill(&mut self, facts: &FunctionFacts) {
        let arena = &facts.arena;
        let n = arena.len();
        let DynIndex {
            loads,
            cwords,
            node_arena,
            cw_arena,
            sym_arena,
            cw_node_arena,
            cword_of,
            scratch,
        } = self;
        cword_of.resize(n, NONE);
        // Reused per load; holds each word's id and location until the
        // outer walk finishes (the memo must not be reset mid-walk).
        let mut cw_locs: Vec<(ExprId, ExprId)> = Vec::new();
        for (i, l) in facts.loads.iter().enumerate() {
            if !arena.depends_on_calldata(l.loc) {
                continue;
            }
            let n0 = node_arena.len();
            cw_locs.clear();
            scratch.reset(n);
            walk_dep(arena, l.loc, scratch, &mut |id, kind| {
                node_arena.push(id);
                if let ExprKind::CalldataWord(loc) = *kind {
                    cw_locs.push((id, loc));
                }
            });
            node_arena[n0..].sort_unstable();
            let c0 = cw_arena.len();
            for &(id, loc) in &cw_locs {
                if cword_of[id.index()] == NONE {
                    let l0 = cw_node_arena.len();
                    scratch.reset(n);
                    walk_dep(arena, loc, scratch, &mut |e, _| cw_node_arena.push(e));
                    cw_node_arena[l0..].sort_unstable();
                    cword_of[id.index()] = cwords.len() as u32;
                    cwords.push(CwordInfo {
                        id,
                        loc_nodes: (l0 as u32, cw_node_arena.len() as u32),
                    });
                }
                cw_arena.push(cword_of[id.index()]);
            }
            let s0 = sym_arena.len();
            let mut mul32_out = false;
            arena.walk_outside_loads(l.loc, |k| {
                if let ExprKind::FreeSym(s) = *k {
                    sym_arena.push(s);
                }
                mul32_out |= is_mul32(arena, k);
            });
            sym_arena[s0..].sort_unstable();
            // In-place dedup of the fresh tail (`Vec::dedup` over a
            // subrange): keeps the range sorted+deduped exactly like the
            // reference's `syms_outside` post-processing.
            let mut w = s0;
            for r in s0..sym_arena.len() {
                if r == s0 || sym_arena[r] != sym_arena[w - 1] {
                    sym_arena[w] = sym_arena[r];
                    w += 1;
                }
            }
            sym_arena.truncate(w);
            loads.push(DynLoad {
                load: i as u32,
                value: l.value,
                nodes: (n0 as u32, node_arena.len() as u32),
                cwords: (c0 as u32, cw_arena.len() as u32),
                syms: (s0 as u32, sym_arena.len() as u32),
                mul32_out,
            });
        }
    }

    /// The sorted node-id slice for the load at `li`.
    fn nodes(&self, li: usize) -> &[ExprId] {
        let (a, b) = self.loads[li].nodes;
        &self.node_arena[a as usize..b as usize]
    }

    /// The sorted outside-load free-symbol slice for the load at `li`.
    fn syms(&self, li: usize) -> &[u32] {
        let (a, b) = self.loads[li].syms;
        &self.sym_arena[a as usize..b as usize]
    }

    /// `contains(loc, o)` for the load at `li`.
    fn contains(&self, li: usize, o: ExprId) -> bool {
        self.nodes(li).binary_search(&o).is_ok()
    }

    /// `is_one_level(loc, o)`: no `CalldataWord` other than `o` itself
    /// has `o` inside its location ([`ExprArena::has_load_between`]
    /// negated).
    fn one_level(&self, li: usize, o: ExprId) -> bool {
        let (a, b) = self.loads[li].cwords;
        !self.cw_arena[a as usize..b as usize].iter().any(|&ci| {
            let cw = &self.cwords[ci as usize];
            let (la, lb) = cw.loc_nodes;
            cw.id != o
                && self.cw_node_arena[la as usize..lb as usize]
                    .binary_search(&o)
                    .is_ok()
        })
    }
}

/// One deep load's compiled predicate values relative to a marker `o`,
/// extracted up front so the classification logic can hold `&mut self`.
#[derive(Clone, Copy)]
struct DeepView {
    /// Index into `DynIndex::loads`.
    li: u32,
    /// Index into `facts.loads`.
    load: u32,
    one_level: bool,
    has_syms: bool,
    mul32: bool,
}

/// The staged matcher. Mirrors the per-rule `Inference` stage for stage;
/// every behavioural comment lives on the reference implementation.
pub(super) struct TreeInference<'a> {
    facts: &'a FunctionFacts,
    arena: &'a ExprArena,
    idx: TreeIndex,
    dyn_idx: Option<DynIndex>,
    rules: Vec<RuleId>,
    vyper: bool,
    /// Accumulate refinement wall-clock into `refine_nanos` (stats mode).
    pub(super) timed: bool,
    pub(super) refine_nanos: Cell<u64>,
}

impl Drop for TreeInference<'_> {
    /// Returns the compiled indexes to the thread-local pools so the next
    /// function inferred on this worker rebuilds allocation-free.
    fn drop(&mut self) {
        IDX_POOL.with(|p| p.set(Some(std::mem::take(&mut self.idx))));
        if let Some(d) = self.dyn_idx.take() {
            DYN_POOL.with(|p| p.set(Some(d)));
        }
    }
}

impl<'a> TreeInference<'a> {
    pub(super) fn new(facts: &'a FunctionFacts) -> Self {
        TreeInference {
            facts,
            arena: &facts.arena,
            idx: TreeIndex::build(facts),
            dyn_idx: None,
            rules: Vec::new(),
            vyper: false,
            timed: false,
            refine_nanos: Cell::new(0),
        }
    }

    fn ensure_dyn(&mut self) {
        if self.dyn_idx.is_none() {
            self.dyn_idx = Some(DynIndex::build(self.facts));
        }
    }

    /// The deep loads of marker `o`: calldata-dependent loads whose
    /// location contains `o` but whose value is not `o` itself, with
    /// their per-`o` predicates resolved — in original load order, like
    /// the reference's `loads_containing` filter chain.
    fn deep_views(&self, o: ExprId, out: &mut Vec<DeepView>) {
        let dynx = self.dyn_idx.as_ref().expect("dyn index built");
        out.extend(
            dynx.loads
                .iter()
                .enumerate()
                .filter(|(li, dl)| dl.value != o && dynx.contains(*li, o))
                .map(|(li, dl)| DeepView {
                    li: li as u32,
                    load: dl.load,
                    one_level: dynx.one_level(li, o),
                    has_syms: dl.syms.0 != dl.syms.1,
                    mul32: dl.mul32_out,
                }),
        );
    }

    pub(super) fn run(&mut self) -> RecoveredParams {
        let n = self.idx.groups.len();
        let mut candidates = std::mem::take(&mut self.idx.cand_pool);
        // Group indices recognised as offset markers in stage 1 (almost
        // always empty, so a linear probe beats a per-group flag vector).
        let mut markers = std::mem::take(&mut self.idx.marker_pool);

        // Stage 1: offset markers among the static-offset groups.
        for gi in 0..n {
            let g = &self.idx.groups[gi];
            let Some(pos) = g.const_pos else { continue };
            if pos < 4 || !self.is_offset_marker(g.value) {
                continue;
            }
            let value = g.value;
            markers.push(gi);
            let ty = self.classify_offset_param(value);
            candidates.push(Candidate { start: pos, ty });
        }
        // Stage 2: public static arrays — constant-source copies.
        let arena = self.arena;
        let mut static_copy_ranges: Vec<(u64, u64)> = Vec::new();
        for copy in &self.facts.copies {
            if arena.depends_on_calldata(copy.src) {
                continue;
            }
            let base = arena.const_addend(copy.src).as_u64().unwrap_or(0);
            let Some(len) = arena.eval(copy.len).and_then(|v| v.as_u64()) else {
                continue;
            };
            if base < 4 || len == 0 || len % 32 != 0 {
                continue;
            }
            let loop_bounds = loop_bounds_for(self.facts, copy);
            let mut dims: Vec<u64> = Vec::new();
            let mut dynamic_outer = false;
            for b in &loop_bounds {
                match b {
                    Bound::Const(n) => dims.push(*n),
                    Bound::Dynamic => dynamic_outer = true,
                }
            }
            dims.push(len / 32);
            let total: u64 = dims.iter().product::<u64>() * 32;
            let element = self.refine_region_element(base, base + total.max(len));
            let mut ty = element;
            for &d in dims.iter().rev() {
                ty = AbiType::Array(Box::new(ty), d as usize);
            }
            if dynamic_outer {
                // Should not happen for constant sources, but keep sane.
                ty = AbiType::DynArray(Box::new(ty));
            }
            self.rules.push(if loop_bounds.is_empty() {
                RuleId::R6
            } else {
                RuleId::R9
            });
            static_copy_ranges.push((base, base + total.max(len)));
            candidates.push(Candidate { start: base, ty });
        }

        // Stages 3 and 4 are the engine's basic-parameter refinement
        // (slot lookup + feature dispatch per candidate); one clock pair
        // around both replaces per-call pairs that would cost more than
        // the dispatches they measure.
        let tr = self.timed.then(Instant::now);
        // Stage 3: external static arrays — symbolic no-calldata loads
        // (R3 / Vyper R24).
        let mut seen_bases: Vec<u64> = Vec::new();
        for gi in 0..n {
            let g = &self.idx.groups[gi];
            if g.const_pos.is_some() || arena.depends_on_calldata(g.loc) {
                continue;
            }
            let syms = arena.free_syms(g.loc);
            if syms.is_empty() {
                continue;
            }
            let base = arena.const_addend(g.loc).as_u64().unwrap_or(0);
            if base < 4 || seen_bases.contains(&base) {
                continue;
            }
            let summary = g.summary;
            seen_bases.push(base);
            let bounds = const_guard_bounds(self.facts, &syms);
            if bounds.is_empty() {
                // A symbolic read with no bound checks: no array evidence.
                let (ty, _) = self.refine_slot(summary);
                self.rules.push(RuleId::R4);
                candidates.push(Candidate { start: base, ty });
                continue;
            }
            let element = self.refine_slot_counted(summary);
            let mut ty = element;
            for &d in bounds.iter().rev() {
                ty = AbiType::Array(Box::new(ty), d as usize);
            }
            self.rules.push(RuleId::R3);
            candidates.push(Candidate { start: base, ty });
        }

        // Stage 4: basic parameters — remaining static-offset groups.
        for gi in 0..n {
            let g = &self.idx.groups[gi];
            let Some(pos) = g.const_pos else { continue };
            let summary = g.summary;
            if pos < 4 || markers.contains(&gi) {
                continue;
            }
            // Skip loads that fall inside a recognised static-array copy
            // region (defensive; genuine compilers do not emit them).
            if static_copy_ranges.iter().any(|&(s, e)| pos >= s && pos < e) {
                continue;
            }
            let ty = self.refine_slot_counted(summary);
            self.rules.push(RuleId::R4);
            candidates.push(Candidate { start: pos, ty });
        }
        if let Some(t) = tr {
            self.refine_nanos
                .set(self.refine_nanos.get() + t.elapsed().as_nanos() as u64);
        }

        candidates.sort_by_key(|c| c.start);
        if self.vyper {
            vyperise(&mut self.rules);
        }
        let params = candidates.drain(..).map(|c| c.ty).collect();
        markers.clear();
        self.idx.cand_pool = candidates;
        self.idx.marker_pool = markers;
        RecoveredParams {
            params,
            language: if self.vyper {
                Language::Vyper
            } else {
                Language::Solidity
            },
            rules: std::mem::take(&mut self.rules),
        }
    }

    /// Shared prefix test, answered from the precomputed node sets: is
    /// `value` used as a base for other loads or copies?
    fn is_offset_marker(&self, value: ExprId) -> bool {
        self.idx.referenced.contains(value) || self.idx.copy_ref_nodes.contains(value)
    }

    // ---- offset-rooted (dynamic) parameters ---------------------------

    /// Classifies a parameter whose offset word is `o`.
    fn classify_offset_param(&mut self, o: ExprId) -> AbiType {
        self.ensure_dyn();
        let copies: Vec<&CopyFact> = self
            .facts
            .copies
            .iter()
            .enumerate()
            .filter(|(i, _)| self.idx.copy_src(*i).binary_search(&o).is_ok())
            .map(|(_, c)| c)
            .collect();
        if !copies.is_empty() {
            return self.classify_copied(o, &copies);
        }
        self.classify_on_demand(o)
    }

    /// Public-mode and Vyper copy patterns (R5–R10, R23).
    fn classify_copied(&mut self, o: ExprId, copies: &[&CopyFact]) -> AbiType {
        let arena = self.arena;
        let copy = copies[0];
        let num = self.find_num_value(o);
        if num.is_some() {
            self.rules.push(RuleId::R1);
        }
        if copies.len() == 1 {
            self.rules.push(RuleId::R5);
        }
        if let Some(len) = arena.eval(copy.len).and_then(|v| v.as_u64()) {
            // Constant length.
            if arena.const_addend(copy.src) == U256::from(4u64) && num.is_none() {
                // Vyper fixed-size byte array / string (R23): the copy
                // starts at the num field itself and spans 32 + maxLen.
                self.rules.push(RuleId::R23);
                self.vyper = true;
                return if self.has_byte_access(o) {
                    self.rules.push(RuleId::R26);
                    AbiType::Bytes
                } else {
                    AbiType::String
                };
            }
            // Multi-dimensional dynamic array copied blockwise (R10).
            let bounds = loop_bounds_for(self.facts, copy);
            let has_dyn = bounds.iter().any(|b| matches!(b, Bound::Dynamic));
            let consts: Vec<u64> = bounds
                .iter()
                .filter_map(|b| match b {
                    Bound::Const(n) => Some(*n),
                    Bound::Dynamic => None,
                })
                .collect();
            let mut dims = consts;
            dims.push(len / 32);
            let element = self.refine_dynamic_element(o);
            let mut ty = element;
            for &d in dims.iter().rev() {
                ty = AbiType::Array(Box::new(ty), d as usize);
            }
            if has_dyn {
                self.rules.push(RuleId::R10);
                return AbiType::DynArray(Box::new(ty));
            }
            // Constant-length copy from an offset without loop: fall back
            // to a one-dimensional dynamic array of that block.
            return AbiType::DynArray(Box::new(ty));
        }
        // Symbolic length.
        if arena.contains_op_by(copy.len, BinOp::Add, 31) {
            // bytes/string: length rounded up to a word multiple (R8).
            self.rules.push(RuleId::R8);
            return if self.has_byte_access(o) {
                self.rules.push(RuleId::R17);
                AbiType::Bytes
            } else {
                AbiType::String
            };
        }
        if arena.contains_mul_by(copy.len, 32) {
            // num × 32: one-dimensional dynamic array (R7).
            self.rules.push(RuleId::R7);
            let element = self.refine_dynamic_element(o);
            return AbiType::DynArray(Box::new(element));
        }
        AbiType::DynArray(Box::new(AbiType::Uint(256)))
    }

    /// External-mode on-demand reads (R1/R2/R17/R21/R22).
    fn classify_on_demand(&mut self, o: ExprId) -> AbiType {
        // The view buffer is recycled through the index; a nested
        // classification (R22's inner marker) sees an empty pool and
        // allocates its own, which the unwind below then retains.
        let mut deep = std::mem::take(&mut self.idx.deep_pool);
        self.deep_views(o, &mut deep);
        let ty = self.classify_views(&deep);
        deep.clear();
        self.idx.deep_pool = deep;
        ty
    }

    fn classify_views(&mut self, deep: &[DeepView]) -> AbiType {
        let num = self.find_num_in_views(deep);
        if num.is_some() {
            self.rules.push(RuleId::R1);
        }
        let num_guarded = num.is_some_and(|n| is_guard_bound(self.facts, n));

        if num_guarded {
            // Two-level chain under a num bound → nested array (R22).
            // Checked first: a nested array's per-item *offset* reads also
            // look like ×32 item loads.
            if let Some(inner_marker) = self.find_inner_marker(deep) {
                self.rules.push(RuleId::R22);
                let inner = self.classify_offset_param(inner_marker);
                return AbiType::DynArray(Box::new(inner));
            }
            // Word-granular item with ×32 → dynamic array (R2). Items are
            // the one-level loads with symbolic components.
            if let Some(item) = deep
                .iter()
                .find(|v| v.one_level && v.has_syms && v.mul32)
                .copied()
            {
                let dynx = self.dyn_idx.as_ref().expect("dyn index built");
                let inner = const_guard_bounds(self.facts, dynx.syms(item.li as usize));
                let loc = self.facts.loads[item.load as usize].loc;
                let element = self.refine_loc_counted(loc);
                let mut ty = element;
                for &d in inner.iter().rev() {
                    ty = AbiType::Array(Box::new(ty), d as usize);
                }
                self.rules.push(RuleId::R2);
                return AbiType::DynArray(Box::new(ty));
            }
            // Byte-granular item → bytes (R17).
            if deep.iter().any(|v| v.one_level && v.has_syms && !v.mul32) {
                self.rules.push(RuleId::R17);
                return AbiType::Bytes;
            }
            return AbiType::DynArray(Box::new(AbiType::Uint(256)));
        }

        // No num bound: static-count nested array or dynamic struct.
        if let Some(inner_marker) = self.find_inner_marker(deep) {
            // Distinguish by how the inner offsets are addressed: a
            // symbolic index (×32) means array items; constant member
            // slots mean a struct. The marker's producing load is one of
            // the deep views: equal values are one node, whose location
            // transitively mentions `o`.
            let marker = *deep
                .iter()
                .find(|v| self.facts.loads[v.load as usize].value == inner_marker)
                .expect("marker has a producing load");
            if marker.has_syms {
                // Static-count outer dimension (bound-checked).
                let dynx = self.dyn_idx.as_ref().expect("dyn index built");
                let bounds = const_guard_bounds(self.facts, dynx.syms(marker.li as usize));
                self.rules.push(RuleId::R22);
                let inner = self.classify_offset_param(inner_marker);
                let n = bounds.first().copied().unwrap_or(1) as usize;
                return AbiType::Array(Box::new(inner), n);
            }
            return self.classify_struct(deep);
        }
        // Only one-level constant-slot member reads → struct of basics
        // would be static (flattened); a lone offset with members read is
        // still best explained as a struct.
        if deep.iter().any(|v| v.one_level && !v.has_syms) {
            return self.classify_struct(deep);
        }
        AbiType::DynArray(Box::new(AbiType::Uint(256)))
    }

    /// Dynamic struct (R21): members at constant offsets from the content
    /// base.
    fn classify_struct(&mut self, deep: &[DeepView]) -> AbiType {
        self.rules.push(RuleId::R21);
        // Member slot loads: one-level, constant addend, no symbols.
        let mut slots: Vec<(u64, u32)> = deep
            .iter()
            .filter(|v| v.one_level && !v.has_syms)
            .map(|v| {
                let loc = self.facts.loads[v.load as usize].loc;
                (self.arena.const_addend(loc).as_u64().unwrap_or(0), v.load)
            })
            .collect();
        slots.sort_by_key(|(k, _)| *k);
        slots.dedup_by_key(|(k, _)| *k);
        let mut members = Vec::new();
        for (_, load) in slots {
            let l = &self.facts.loads[load as usize];
            let (value, loc) = (l.value, l.loc);
            if self.is_offset_marker(value) {
                let member = self.classify_offset_param(value);
                if member.is_nested_array() {
                    self.rules.push(RuleId::R19);
                }
                members.push(member);
            } else {
                let ty = self.refine_loc_counted(loc);
                members.push(ty);
            }
        }
        if members.is_empty() {
            members.push(AbiType::Uint(256));
        }
        AbiType::Tuple(members)
    }

    /// The per-item inner offset word of a two-level chain rooted at `o`.
    fn find_inner_marker(&self, deep: &[DeepView]) -> Option<ExprId> {
        deep.iter()
            .filter(|v| v.one_level)
            .map(|v| self.facts.loads[v.load as usize].value)
            .find(|&value| self.is_offset_marker(value))
    }

    /// [`Self::find_num_value`] over already-computed deep views — the
    /// num filter is exactly the one-level, symbol-free, stride-free
    /// subset of them, in the same load order, so the on-demand path
    /// avoids a second scan over the dynamic loads.
    fn find_num_in_views(&self, deep: &[DeepView]) -> Option<ExprId> {
        let is_num = |v: &DeepView| v.one_level && !v.has_syms && !v.mul32;
        let mut first: Option<u32> = None;
        let mut count = 0usize;
        for v in deep {
            if is_num(v) {
                first.get_or_insert(v.load);
                count += 1;
            }
        }
        if count > 1 {
            if let Some(v) = deep
                .iter()
                .filter(|v| is_num(v))
                .find(|v| is_count_like(self.facts, self.facts.loads[v.load as usize].value))
            {
                return Some(self.facts.loads[v.load as usize].value);
            }
        }
        first.map(|ld| self.facts.loads[ld as usize].value)
    }

    /// The num-field word of the structure rooted at `o`: a one-level,
    /// symbol-free, multiplication-free load through `o`.
    fn find_num_value(&self, o: ExprId) -> Option<ExprId> {
        let dynx = self.dyn_idx.as_ref().expect("dyn index built");
        let is_cand = |li: usize, dl: &DynLoad| {
            dl.value != o
                && dl.syms.0 == dl.syms.1
                && !dl.mul32_out
                && dynx.contains(li, o)
                && dynx.one_level(li, o)
        };
        // Prefer one that is actually used as a bound or length — the
        // reference's stable sort on `!is_count_like` followed by
        // `first()`, computed as two scans so nothing is collected and
        // the (guard- and copy-walking) predicate short-circuits and
        // never runs for a lone candidate.
        let mut first: Option<u32> = None;
        let mut count = 0usize;
        for (li, dl) in dynx.loads.iter().enumerate() {
            if is_cand(li, dl) {
                first.get_or_insert(dl.load);
                count += 1;
            }
        }
        if count > 1 {
            if let Some(ld) = dynx
                .loads
                .iter()
                .enumerate()
                .filter(|(li, dl)| is_cand(*li, dl))
                .map(|(_, dl)| dl.load)
                .find(|&ld| is_count_like(self.facts, self.facts.loads[ld as usize].value))
            {
                return Some(self.facts.loads[ld as usize].value);
            }
        }
        first.map(|ld| self.facts.loads[ld as usize].value)
    }

    /// True if some byte-granular use mentions the parameter rooted at
    /// `o` (R17/R26/R31 evidence), answered from the key's summary.
    fn has_byte_access(&self, o: ExprId) -> bool {
        let ExprKind::CalldataWord(loc) = *self.arena.kind(o) else {
            return false;
        };
        self.summary_for_loc(loc).flags & F_BYTE != 0
    }

    /// Refinement of a dynamic array's element type.
    fn refine_dynamic_element(&mut self, o: ExprId) -> AbiType {
        let ExprKind::CalldataWord(loc) = *self.arena.kind(o) else {
            return AbiType::Uint(256);
        };
        self.refine_loc_counted(loc)
    }

    /// Refinement of a copied static region's element: the summaries of
    /// every constant use key within `[start, end)`, merged. Folding over
    /// the sorted-deduped use indices reproduces the reference's
    /// once-per-use, use-order semantics.
    fn refine_region_element(&mut self, start: u64, end: u64) -> AbiType {
        let mut idxs: Vec<u32> = self
            .idx
            .uses_by_offset
            .range(start..end)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        idxs.sort_unstable();
        idxs.dedup();
        let t = self.timed.then(Instant::now);
        let mut s = RefineSummary::default();
        for &i in &idxs {
            s.fold(i, self.idx.decoded[i as usize]);
        }
        let (ty, rules) = refine_summary(&s);
        if let Some(t) = t {
            self.refine_nanos
                .set(self.refine_nanos.get() + t.elapsed().as_nanos() as u64);
        }
        self.note_refinement(rules);
        ty
    }

    /// Refinement via a group's pre-resolved summary slot (no lookup at
    /// all).
    /// Untimed: the dispatch is a table lookup, cheaper than a clock
    /// read, so its callers (stages 3 and 4) time themselves wholesale.
    fn refine_slot(&self, slot: Option<u32>) -> (AbiType, &'static [RuleId]) {
        let s = slot
            .map(|si| self.idx.entries[si as usize])
            .unwrap_or_default();
        refine_summary(&s)
    }

    fn refine_slot_counted(&mut self, slot: Option<u32>) -> AbiType {
        let (ty, rules) = self.refine_slot(slot);
        self.note_refinement(rules);
        ty
    }

    /// The folded summary of the uses naming `loc`.
    fn summary_for_loc(&self, loc: ExprId) -> RefineSummary {
        match self.idx.entry_of[loc.index()] {
            NONE => RefineSummary::default(),
            si => self.idx.entries[si as usize],
        }
    }

    /// Refinement via an arbitrary location expression (dynamic-path
    /// items whose locations are not load groups of their own).
    fn refine_loc_counted(&mut self, loc: ExprId) -> AbiType {
        let s = self.summary_for_loc(loc);
        let (ty, rules) = self.refined(&s);
        self.note_refinement(rules);
        ty
    }

    fn note_refinement(&mut self, rules: &'static [RuleId]) {
        for &r in rules {
            if matches!(r, RuleId::R27 | RuleId::R28 | RuleId::R29 | RuleId::R30) {
                self.vyper = true;
            }
            self.rules.push(r);
        }
    }

    /// Times one refinement dispatch when stats mode asks for the phase
    /// split.
    fn refined(&self, s: &RefineSummary) -> (AbiType, &'static [RuleId]) {
        if !self.timed {
            return refine_summary(s);
        }
        let t = Instant::now();
        let out = refine_summary(s);
        self.refine_nanos
            .set(self.refine_nanos.get() + t.elapsed().as_nanos() as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::{infer_with, refine_from_usages, InferEngine};
    use super::*;
    use crate::facts::{LoadFact, UseFact};

    fn assert_engines_agree(facts: &FunctionFacts) -> RecoveredParams {
        let tree = infer_with(facts, InferEngine::Tree);
        let per_rule = infer_with(facts, InferEngine::PerRule);
        assert_eq!(tree.params, per_rule.params, "params diverge");
        assert_eq!(tree.language, per_rule.language, "language diverges");
        assert_eq!(tree.rules, per_rule.rules, "rule sequence diverges");
        tree
    }

    fn basic_load(facts: &mut FunctionFacts, pc: usize, pos: u64) -> ExprId {
        let loc = facts.arena.c64(pos);
        let value = facts.arena.calldata_word(loc);
        facts.add_load(LoadFact { pc, loc, value });
        value
    }

    /// A use of `usage` keyed to the constant location `pos`.
    fn use_at(facts: &mut FunctionFacts, pc: usize, pos: u64, usage: Usage) {
        let key = facts.arena.c64(pos);
        facts.add_use(UseFact {
            pc,
            keys: vec![key],
            usage,
        });
    }

    #[test]
    fn empty_facts_build_an_empty_index() {
        let facts = FunctionFacts::default();
        let idx = TreeIndex::build(&facts);
        assert!(idx.groups.is_empty());
        assert!(idx.entries.is_empty());
        assert!(idx.uses_by_offset.is_empty());
        let result = assert_engines_agree(&facts);
        assert!(result.params.is_empty());
        assert!(result.rules.is_empty());
        assert_eq!(result.language, Language::Solidity);
    }

    #[test]
    fn offsets_beyond_sixteen_bits_stay_exact() {
        // Feature bitsets are keyed by full u64 offsets, not a truncated
        // bucket index: a load at 2^16 + 4 and one at 2^32 + 4 must both
        // classify, at their exact positions.
        let mut facts = FunctionFacts::default();
        basic_load(&mut facts, 1, (1 << 16) + 4);
        basic_load(&mut facts, 2, (1u64 << 32) + 4);
        use_at(
            &mut facts,
            3,
            (1u64 << 32) + 4,
            Usage::MaskAnd(U256::low_mask(8)),
        );
        let idx = TreeIndex::build(&facts);
        assert_eq!(
            idx.groups[1].const_pos,
            Some((1u64 << 32) + 4),
            "offset must not truncate"
        );
        let result = assert_engines_agree(&facts);
        assert_eq!(result.params, vec![AbiType::Uint(256), AbiType::Uint(8)]);
    }

    #[test]
    fn conflicting_mask_widths_fold_to_the_minimum() {
        // Two accesses of one offset with different low-mask widths: the
        // summary keeps the minimum, exactly like the reference fold.
        let mut facts = FunctionFacts::default();
        basic_load(&mut facts, 1, 4);
        use_at(&mut facts, 2, 4, Usage::MaskAnd(U256::low_mask(128)));
        use_at(&mut facts, 3, 4, Usage::MaskAnd(U256::low_mask(16)));
        let idx = TreeIndex::build(&facts);
        let four = facts.loads[0].loc;
        let si = idx.entry_of[four.index()] as usize;
        assert_eq!(idx.entries[si].mask_low, Some(2));
        let result = assert_engines_agree(&facts);
        assert_eq!(result.params, vec![AbiType::Uint(16)]);

        // A conflicting high mask on the same offset: high masks win the
        // dispatch (the reference checks R12 before R11).
        use_at(&mut facts, 4, 4, Usage::MaskAnd(U256::high_mask(32)));
        let result = assert_engines_agree(&facts);
        assert_eq!(result.params, vec![AbiType::FixedBytes(4)]);
    }

    #[test]
    fn full_width_masks_are_inert() {
        let m = Usage::MaskAnd(U256::low_mask(256));
        assert!(matches!(decode_usage(&m), DecodedUsage::Inert));
        let mut facts = FunctionFacts::default();
        basic_load(&mut facts, 1, 4);
        use_at(&mut facts, 2, 4, m);
        let result = assert_engines_agree(&facts);
        assert_eq!(result.params, vec![AbiType::Uint(256)]);
    }

    #[test]
    fn dynamic_offset_candidates_stay_out_of_static_tables() {
        // A symbolic-location load (external static-array item, R3 shape)
        // must carry no `const_pos` — it must never enter the
        // static-offset stages as a basic parameter.
        let mut facts = FunctionFacts::default();
        let a = &mut facts.arena;
        let (c4, s0) = (a.c64(4), a.free_sym(0));
        let sym_loc = a.bin(BinOp::Add, c4, s0);
        let value = a.calldata_word(sym_loc);
        facts.add_load(LoadFact {
            pc: 1,
            loc: sym_loc,
            value,
        });
        let idx = TreeIndex::build(&facts);
        assert_eq!(idx.groups.len(), 1);
        assert_eq!(
            idx.groups[0].const_pos, None,
            "symbolic location must not be treated as a static offset"
        );
        assert_engines_agree(&facts);

        // An offset-rooted one (R1-style marker chain): same requirement
        // for the inner load whose location embeds the offset word.
        let mut facts = FunctionFacts::default();
        let o = basic_load(&mut facts, 1, 4);
        let c32 = facts.arena.c64(32);
        let inner_loc = facts.arena.bin(BinOp::Add, o, c32);
        let value = facts.arena.calldata_word(inner_loc);
        facts.add_load(LoadFact {
            pc: 2,
            loc: inner_loc,
            value,
        });
        let idx = TreeIndex::build(&facts);
        assert_eq!(idx.groups[1].const_pos, None);
        // The offset word itself is a marker: addressed through by the
        // second load.
        assert!(idx.referenced.contains(o));
        assert_engines_agree(&facts);
    }

    #[test]
    fn symbolic_locations_match_their_uses_by_id() {
        // A use keyed to a symbolic location (an R3/R4 item read) reaches
        // that location's group, and only it: a twin location built from
        // another symbol stays unrefined.
        let mut facts = FunctionFacts::default();
        let a = &mut facts.arena;
        let c4 = a.c64(4);
        let (s0, s1) = (a.free_sym(0), a.free_sym(1));
        let (l0, l1) = (a.bin(BinOp::Add, c4, s0), a.bin(BinOp::Add, c4, s1));
        let (v0, v1) = (a.calldata_word(l0), a.calldata_word(l1));
        facts.add_load(LoadFact {
            pc: 1,
            loc: l0,
            value: v0,
        });
        facts.add_load(LoadFact {
            pc: 2,
            loc: l1,
            value: v1,
        });
        facts.add_use(UseFact {
            pc: 3,
            keys: vec![l0],
            usage: Usage::MaskAnd(U256::low_mask(8)),
        });
        let idx = TreeIndex::build(&facts);
        assert!(idx.groups[0].summary.is_some());
        assert!(idx.groups[1].summary.is_none());
        let result = assert_engines_agree(&facts);
        assert_eq!(result.params, vec![AbiType::Uint(8)]);
    }

    #[test]
    fn first_unsigned_range_check_wins_in_use_order() {
        // Use order decides between R30 (bool) and R27 (address) when one
        // key sees both constants; the summary's min-use-index must
        // reproduce the reference's first-match-in-order semantics.
        for flip in [false, true] {
            let mut facts = FunctionFacts::default();
            basic_load(&mut facts, 1, 4);
            let (a, b) = (U256::from(2u64), U256::ONE << 160u32);
            let (first, second) = if flip { (b, a) } else { (a, b) };
            use_at(&mut facts, 2, 4, Usage::RangeUnsigned(first));
            use_at(&mut facts, 3, 4, Usage::RangeUnsigned(second));
            let result = assert_engines_agree(&facts);
            let expect = if flip {
                AbiType::Address
            } else {
                AbiType::Bool
            };
            assert_eq!(result.params, vec![expect]);
            assert_eq!(result.language, Language::Vyper);
        }
    }

    #[test]
    fn decoded_usages_match_reference_refinement_exhaustively() {
        // Single-usage agreement between the decoded-summary dispatch and
        // `refine_from_usages`, across every usage class the decoder
        // distinguishes (plus a few adversarial mask constants).
        let usages = [
            Usage::MaskAnd(U256::low_mask(8)),
            Usage::MaskAnd(U256::low_mask(160)),
            Usage::MaskAnd(U256::low_mask(256)),
            Usage::MaskAnd(U256::high_mask(8)),
            Usage::MaskAnd(U256::high_mask(248)),
            Usage::MaskAnd(U256::from(0x1234u64)), // neither mask shape
            Usage::SignExtendFrom(0),
            Usage::SignExtendFrom(31),
            Usage::DoubleIsZero,
            Usage::ByteExtract,
            Usage::SignedOp,
            Usage::Arithmetic,
            Usage::RangeUnsigned(U256::from(2u64)),
            Usage::RangeUnsigned(U256::ONE << 160u32),
            Usage::RangeUnsigned(U256::from(7u64)),
            Usage::RangeSigned(U256::ONE << 127u32),
            Usage::RangeSigned((U256::ONE << 127u32) * U256::from(10_000_000_000u64)),
            Usage::RangeSigned(U256::from(5u64)),
        ];
        for (i, u) in usages.iter().enumerate() {
            let mut s = RefineSummary::default();
            s.fold(0, decode_usage(u));
            let (ty, rules) = refine_summary(&s);
            let (ref_ty, ref_rules) = refine_from_usages(&[u]);
            assert_eq!(ty, ref_ty, "type diverges on usage #{i} {u:?}");
            assert_eq!(rules, &ref_rules[..], "rules diverge on usage #{i} {u:?}");
        }
    }
}
