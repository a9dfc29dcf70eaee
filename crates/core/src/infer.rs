//! The inference engine: rules R1–R31 over TASE facts.
//!
//! Implements the paper's four-step TASE pipeline (§4.2): coarse-grained
//! classification (dynamic/static/basic, via the CALLDATALOAD and
//! CALLDATACOPY rules), parameter counting and ordering by calldata
//! position, parameter-identity propagation (done structurally through the
//! expressions themselves), and fine-grained refinement (masks, sign
//! extensions, range checks, byte accesses).
//!
//! Two matchers implement the rules (see [`InferEngine`]): the per-rule
//! reference in this module, where each rule family re-probes the facts
//! per candidate parameter, and the staged decision-tree matcher in the
//! private `tree` module, which compiles the facts into per-offset
//! feature bitsets once and dispatches rules by feature signature — the
//! paper's Fig. 13 reading of R1–R31 as a decision tree rather than 31
//! independent matchers. Both produce byte-identical [`RecoveredParams`] (parameters,
//! language, and rule applications in order); the conformance matrix and
//! the fuzz campaigns gate on that equivalence.

mod tree;

use crate::expr::{BinOp, ExprArena, ExprId, ExprKind};
use crate::facts::{CopyFact, FunctionFacts, LoadFact, Usage};
use crate::rules::RuleId;
use sigrec_abi::AbiType;
use sigrec_evm::U256;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// The source language TASE believes produced the bytecode (rule R20).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Language {
    /// Mask-based access patterns.
    Solidity,
    /// Comparison-based range checks / fixed-size copies.
    Vyper,
}

/// The recovered parameter list of one function.
#[derive(Clone, Debug)]
pub struct RecoveredParams {
    /// Parameter types in calldata order.
    pub params: Vec<AbiType>,
    /// Detected source language.
    pub language: Language,
    /// Rules applied, in application order (duplicates meaningful: one
    /// entry per application, for the Fig. 19 statistics).
    pub rules: Vec<RuleId>,
}

/// Which matcher runs the R1–R31 rules over a function's facts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InferEngine {
    /// The per-rule reference matcher: every rule family re-probes
    /// [`FunctionFacts`] (through the private `FactsIndex`) per candidate
    /// parameter. Kept as the differential baseline the conformance
    /// matrix and the fuzz campaigns compare against.
    PerRule,
    /// The staged decision-tree matcher (the private `tree` module):
    /// per-offset feature bitsets and per-key refinement summaries are
    /// built in one pass, shared prefix tests run exactly once, and
    /// refinement dispatches on the summary's feature signature. Observationally identical to
    /// [`InferEngine::PerRule`] — same parameters, same language, same
    /// rule applications in the same order.
    #[default]
    Tree,
}

/// Wall-clock split of one inference call, populated by [`infer_timed`].
/// The pipeline never times inference; this exists for the benchmark's
/// traced driver (`perfbench/src/trace.rs`), which reports each field as
/// a per-layer metric. `match_nanos` is the residual: total call time
/// minus index build minus refinement dispatch.
#[derive(Clone, Copy, Debug, Default)]
pub struct InferTiming {
    /// Building the side tables (both engines) / feature bitsets (tree).
    pub index_nanos: u64,
    /// Coarse classification and rule matching over the candidates.
    pub match_nanos: u64,
    /// Fine-grained refinement (masks, ranges, sign extensions).
    pub refine_nanos: u64,
}

/// Runs inference over one function's facts with the default engine.
pub fn infer(facts: &FunctionFacts) -> RecoveredParams {
    infer_with(facts, InferEngine::default())
}

/// Runs inference over one function's facts with an explicit engine.
pub fn infer_with(facts: &FunctionFacts, engine: InferEngine) -> RecoveredParams {
    match engine {
        InferEngine::PerRule => Inference::new(facts).run(),
        InferEngine::Tree => tree::TreeInference::new(facts).run(),
    }
}

/// Like [`infer_with`], but also reports the index/match/refine phase
/// split. Slightly slower than the untimed path (two extra clock reads
/// per refinement), so the pipeline never calls it; it is kept for the
/// benchmark's traced driver, which times the infer layer with it.
pub fn infer_timed(facts: &FunctionFacts, engine: InferEngine) -> (RecoveredParams, InferTiming) {
    let t0 = Instant::now();
    let (result, index_nanos, refine_nanos) = match engine {
        InferEngine::PerRule => {
            let mut inf = Inference::new(facts);
            let index_nanos = t0.elapsed().as_nanos() as u64;
            inf.timed = true;
            let result = inf.run();
            (result, index_nanos, inf.refine_nanos.get())
        }
        InferEngine::Tree => {
            let mut inf = tree::TreeInference::new(facts);
            let index_nanos = t0.elapsed().as_nanos() as u64;
            inf.timed = true;
            let result = inf.run();
            (result, index_nanos, inf.refine_nanos.get())
        }
    };
    let total = t0.elapsed().as_nanos() as u64;
    let timing = InferTiming {
        index_nanos,
        match_nanos: total.saturating_sub(index_nanos + refine_nanos),
        refine_nanos,
    };
    (result, timing)
}

struct Candidate {
    /// Absolute calldata position of the parameter's head (≥ 4).
    start: u64,
    ty: AbiType,
}

/// Side tables over one function's facts, built once per inference run.
///
/// `FunctionFacts` stores flat vectors, and the R1/R4/R11 matchers probe
/// them repeatedly — once per candidate parameter, and again per
/// refinement key. The index pays one linear pass up front for map
/// lookups afterwards. Every table stores indices into the fact vectors
/// in their original order, so downstream consumers (the stable sort in
/// `find_num_value`, the member walk in `classify_struct`) see facts in
/// exactly the order a linear scan would produce.
struct FactsIndex {
    /// Use indices by location (the `refine_basic_key` probe behind
    /// R4/R11 refinement).
    uses_by_key: BTreeMap<ExprId, Vec<u32>>,
    /// Use indices by constant calldata offset, enabling range queries
    /// over copied static regions.
    uses_by_offset: BTreeMap<u64, Vec<u32>>,
    /// Load indices by every node inside the load's location — the
    /// containment probe behind R1 num-field discovery and offset-marker
    /// detection.
    loads_by_node: BTreeMap<ExprId, Vec<u32>>,
}

impl FactsIndex {
    fn build(facts: &FunctionFacts) -> Self {
        let arena = &facts.arena;
        let mut uses_by_key: BTreeMap<ExprId, Vec<u32>> = BTreeMap::new();
        let mut uses_by_offset: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (i, u) in facts.uses.iter().enumerate() {
            for &k in &u.keys {
                uses_by_key.entry(k).or_default().push(i as u32);
                if let Some(off) = const_offset(arena, k) {
                    uses_by_offset.entry(off).or_default().push(i as u32);
                }
            }
        }
        // A use listing the same key twice must still count once; pushes
        // for one use are consecutive, so adjacent dedup suffices.
        for v in uses_by_key.values_mut() {
            v.dedup();
        }
        for v in uses_by_offset.values_mut() {
            v.dedup();
        }
        let mut loads_by_node: BTreeMap<ExprId, Vec<u32>> = BTreeMap::new();
        for (i, l) in facts.loads.iter().enumerate() {
            arena.walk(l.loc, |id, _| {
                loads_by_node.entry(id).or_default().push(i as u32);
            });
        }
        FactsIndex {
            uses_by_key,
            uses_by_offset,
            loads_by_node,
        }
    }
}

struct Inference<'a> {
    facts: &'a FunctionFacts,
    arena: &'a ExprArena,
    index: FactsIndex,
    rules: Vec<RuleId>,
    vyper: bool,
    /// Accumulate refinement wall-clock into `refine_nanos` (stats mode).
    timed: bool,
    refine_nanos: Cell<u64>,
}

impl<'a> Inference<'a> {
    fn new(facts: &'a FunctionFacts) -> Self {
        Inference {
            facts,
            arena: &facts.arena,
            index: FactsIndex::build(facts),
            rules: Vec::new(),
            vyper: false,
            timed: false,
            refine_nanos: Cell::new(0),
        }
    }

    /// Loads whose location contains `e`, in original load order —
    /// `facts.loads` filtered on `arena.contains(l.loc, e)`.
    fn loads_containing(&self, e: ExprId) -> Vec<&'a LoadFact> {
        let facts = self.facts;
        self.index
            .loads_by_node
            .get(&e)
            .into_iter()
            .flatten()
            .map(|&i| &facts.loads[i as usize])
            .collect()
    }

    fn run(&mut self) -> RecoveredParams {
        let mut candidates: Vec<Candidate> = Vec::new();

        // Group loads by location key (the same slot is often read several
        // times at different pcs).
        let arena = self.arena;
        let groups = group_loads(arena, &self.facts.loads);

        // Offset markers: constant-location loads whose value word is used
        // as a base for further loads or copies.
        let mut marker_locs: Vec<ExprId> = Vec::new();
        for g in &groups {
            let Some(pos) = g.const_pos else { continue };
            if pos < 4 {
                continue;
            }
            if self.is_offset_marker(g.value) {
                marker_locs.push(g.loc);
                let ty = self.classify_offset_param(g.value);
                candidates.push(Candidate { start: pos, ty });
            }
        }

        // Public static arrays: constant-source copies.
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

        // External static arrays: symbolic-location loads without any
        // calldata word inside (R3 / Vyper R24).
        let mut seen_bases: Vec<u64> = Vec::new();
        for g in &groups {
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
            seen_bases.push(base);
            let bounds = const_guard_bounds(self.facts, &syms);
            if bounds.is_empty() {
                // A symbolic read with no bound checks: no array evidence.
                let (ty, _) = self.refine_basic_key(g.loc);
                self.rules.push(RuleId::R4);
                candidates.push(Candidate { start: base, ty });
                continue;
            }
            let element = self.refine_basic_key_counted(g.loc);
            let mut ty = element;
            for &d in bounds.iter().rev() {
                ty = AbiType::Array(Box::new(ty), d as usize);
            }
            self.rules.push(RuleId::R3);
            candidates.push(Candidate { start: base, ty });
        }

        // Basic parameters: remaining constant-location loads.
        for g in &groups {
            let Some(pos) = g.const_pos else { continue };
            if pos < 4 || marker_locs.contains(&g.loc) {
                continue;
            }
            // Skip loads that fall inside a recognised static-array copy
            // region (defensive; genuine compilers do not emit them).
            if static_copy_ranges.iter().any(|&(s, e)| pos >= s && pos < e) {
                continue;
            }
            let ty = self.refine_basic_key_counted(g.loc);
            self.rules.push(RuleId::R4);
            candidates.push(Candidate { start: pos, ty });
        }

        candidates.sort_by_key(|c| c.start);
        if self.vyper {
            vyperise(&mut self.rules);
        }
        RecoveredParams {
            params: candidates.into_iter().map(|c| c.ty).collect(),
            language: if self.vyper {
                Language::Vyper
            } else {
                Language::Solidity
            },
            rules: std::mem::take(&mut self.rules),
        }
    }

    /// True if `value` (a `CalldataWord` node) is used as a base for other
    /// loads or copies — i.e. it is an offset field.
    fn is_offset_marker(&self, value: ExprId) -> bool {
        // A load's own location never contains the value it produces (the
        // value strictly wraps it), so a non-empty bucket means some
        // *other* load addresses through `value`.
        self.index.loads_by_node.contains_key(&value)
            || self
                .facts
                .copies
                .iter()
                .any(|c| self.arena.contains(c.src, value) || self.arena.contains(c.len, value))
    }

    // ---- offset-rooted (dynamic) parameters ---------------------------

    /// Classifies a parameter whose offset word is `o`.
    fn classify_offset_param(&mut self, o: ExprId) -> AbiType {
        let copies: Vec<&CopyFact> = self
            .facts
            .copies
            .iter()
            .filter(|c| self.arena.contains(c.src, o))
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
        let arena = self.arena;
        let deep: Vec<&LoadFact> = self
            .loads_containing(o)
            .into_iter()
            .filter(|l| l.value != o)
            .collect();
        let num = self.find_num_value(o);
        if num.is_some() {
            self.rules.push(RuleId::R1);
        }
        let num_guarded = num.is_some_and(|n| is_guard_bound(self.facts, n));

        // One-level item loads with symbolic components.
        let items: Vec<&&LoadFact> = deep
            .iter()
            .filter(|l| is_one_level(arena, l.loc, o) && !syms_outside(arena, l.loc).is_empty())
            .collect();

        if num_guarded {
            // Two-level chain under a num bound → nested array (R22).
            // Checked first: a nested array's per-item *offset* reads also
            // look like ×32 item loads.
            if let Some(inner_marker) = self.find_inner_marker(o, &deep) {
                self.rules.push(RuleId::R22);
                let inner = self.classify_offset_param(inner_marker);
                return AbiType::DynArray(Box::new(inner));
            }
            // Word-granular item with ×32 → dynamic array (R2).
            if let Some(item) = items.iter().find(|l| mul32_outside(arena, l.loc)) {
                let syms = syms_outside(arena, item.loc);
                let inner = const_guard_bounds(self.facts, &syms);
                let element = self.refine_basic_key_counted(item.loc);
                let mut ty = element;
                for &d in inner.iter().rev() {
                    ty = AbiType::Array(Box::new(ty), d as usize);
                }
                self.rules.push(RuleId::R2);
                return AbiType::DynArray(Box::new(ty));
            }
            // Byte-granular item → bytes (R17).
            if items.iter().any(|l| !mul32_outside(arena, l.loc)) {
                self.rules.push(RuleId::R17);
                return AbiType::Bytes;
            }
            return AbiType::DynArray(Box::new(AbiType::Uint(256)));
        }

        // No num bound: static-count nested array or dynamic struct.
        if let Some(inner_marker) = self.find_inner_marker(o, &deep) {
            // Distinguish by how the inner offsets are addressed: a
            // symbolic index (×32) means array items; constant member
            // slots mean a struct.
            let marker_load = self
                .facts
                .loads
                .iter()
                .find(|l| l.value == inner_marker)
                .expect("marker has a producing load");
            let syms = syms_outside(arena, marker_load.loc);
            if !syms.is_empty() {
                // Static-count outer dimension (bound-checked).
                let bounds = const_guard_bounds(self.facts, &syms);
                self.rules.push(RuleId::R22);
                let inner = self.classify_offset_param(inner_marker);
                let n = bounds.first().copied().unwrap_or(1) as usize;
                return AbiType::Array(Box::new(inner), n);
            }
            return self.classify_struct(o, &deep);
        }
        // Only one-level constant-slot member reads → struct of basics
        // would be static (flattened); a lone offset with members read is
        // still best explained as a struct.
        if deep
            .iter()
            .any(|l| is_one_level(arena, l.loc, o) && syms_outside(arena, l.loc).is_empty())
        {
            return self.classify_struct(o, &deep);
        }
        AbiType::DynArray(Box::new(AbiType::Uint(256)))
    }

    /// Dynamic struct (R21): members at constant offsets from the content
    /// base.
    fn classify_struct(&mut self, o: ExprId, deep: &[&LoadFact]) -> AbiType {
        let arena = self.arena;
        self.rules.push(RuleId::R21);
        // Member slot loads: one-level, constant addend, no symbols.
        let mut slots: Vec<(u64, &LoadFact)> = deep
            .iter()
            .filter(|l| is_one_level(arena, l.loc, o) && syms_outside(arena, l.loc).is_empty())
            .map(|l| (arena.const_addend(l.loc).as_u64().unwrap_or(0), *l))
            .collect();
        slots.sort_by_key(|(k, _)| *k);
        slots.dedup_by_key(|(k, _)| *k);
        let mut members = Vec::new();
        for (_, slot) in slots {
            if self.is_offset_marker(slot.value) {
                let member = self.classify_offset_param(slot.value);
                if member.is_nested_array() {
                    self.rules.push(RuleId::R19);
                }
                members.push(member);
            } else {
                let ty = self.refine_basic_key_counted(slot.loc);
                members.push(ty);
            }
        }
        if members.is_empty() {
            members.push(AbiType::Uint(256));
        }
        AbiType::Tuple(members)
    }

    /// The per-item inner offset word of a two-level chain rooted at `o`:
    /// a load value `X` (≠ `o`) produced from a location containing `o`,
    /// itself used as a base for further loads.
    fn find_inner_marker(&self, o: ExprId, deep: &[&LoadFact]) -> Option<ExprId> {
        deep.iter()
            .find(|l| is_one_level(self.arena, l.loc, o) && self.is_offset_marker(l.value))
            .map(|l| l.value)
    }

    /// The num-field word of the structure rooted at `o`: a one-level,
    /// symbol-free, multiplication-free load through `o`.
    fn find_num_value(&self, o: ExprId) -> Option<ExprId> {
        let arena = self.arena;
        let mut candidates: Vec<&LoadFact> = self
            .loads_containing(o)
            .into_iter()
            .filter(|l| {
                l.value != o
                    && is_one_level(arena, l.loc, o)
                    && syms_outside(arena, l.loc).is_empty()
                    && !mul32_outside(arena, l.loc)
            })
            .collect();
        // Prefer one that is actually used as a bound or length.
        candidates.sort_by_key(|l| !is_count_like(self.facts, l.value));
        candidates.first().map(|l| l.value)
    }

    /// True if some byte-granular use mentions the parameter rooted at `o`
    /// (R17/R26/R31 evidence). `o`'s own location is a key of every use
    /// of region-derived values.
    fn has_byte_access(&self, o: ExprId) -> bool {
        let ExprKind::CalldataWord(loc) = *self.arena.kind(o) else {
            return false;
        };
        self.index
            .uses_by_key
            .get(&loc)
            .into_iter()
            .flatten()
            .any(|&i| self.facts.uses[i as usize].usage == Usage::ByteExtract)
    }

    /// Refinement of a dynamic array's element type: mask-like uses whose
    /// keys mention the parameter's offset slot (copied-region reads and
    /// on-demand reads both embed it).
    fn refine_dynamic_element(&mut self, o: ExprId) -> AbiType {
        let ExprKind::CalldataWord(loc) = *self.arena.kind(o) else {
            return AbiType::Uint(256);
        };
        self.refine_basic_key_counted(loc)
    }

    /// Refinement of a copied static region's element: mask-like uses whose
    /// keys are constants within `[start, end)`.
    fn refine_region_element(&mut self, start: u64, end: u64) -> AbiType {
        // A use indexed under several in-range offsets appears once per
        // offset; sort + dedup restores the once-per-use semantics of the
        // linear scan (and its original use order).
        let mut idx: Vec<u32> = self
            .index
            .uses_by_offset
            .range(start..end)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        idx.sort_unstable();
        idx.dedup();
        let uses: Vec<&Usage> = idx
            .iter()
            .map(|&i| &self.facts.uses[i as usize].usage)
            .collect();
        let (ty, rules) = self.refined(&uses);
        self.note_refinement(&rules);
        ty
    }

    /// Refinement via uses keyed to the location `key`, with rule
    /// accounting.
    fn refine_basic_key_counted(&mut self, key: ExprId) -> AbiType {
        let (ty, rules) = self.refine_basic_key(key);
        self.note_refinement(&rules);
        ty
    }

    fn refine_basic_key(&self, key: ExprId) -> (AbiType, Vec<RuleId>) {
        let uses: Vec<&Usage> = self
            .index
            .uses_by_key
            .get(&key)
            .into_iter()
            .flatten()
            .map(|&i| &self.facts.uses[i as usize].usage)
            .collect();
        self.refined(&uses)
    }

    fn note_refinement(&mut self, rules: &[RuleId]) {
        for &r in rules {
            if matches!(r, RuleId::R27 | RuleId::R28 | RuleId::R29 | RuleId::R30) {
                self.vyper = true;
            }
            self.rules.push(r);
        }
    }

    /// Times one refinement dispatch when stats mode asks for the phase
    /// split.
    fn refined(&self, uses: &[&Usage]) -> (AbiType, Vec<RuleId>) {
        if !self.timed {
            return refine_from_usages(uses);
        }
        let t = Instant::now();
        let out = refine_from_usages(uses);
        self.refine_nanos
            .set(self.refine_nanos.get() + t.elapsed().as_nanos() as u64);
        out
    }
}

enum Bound {
    Const(u64),
    Dynamic,
}

/// True if `v` appears as the right side of a `Lt` guard (it bounds some
/// index — the "num used as bound" test of R1/R22).
fn is_guard_bound(facts: &FunctionFacts, v: ExprId) -> bool {
    facts.guards.iter().any(
        |g| matches!(*facts.arena.kind(g.cond), ExprKind::Binary(BinOp::Lt, _, rhs) if rhs == v),
    )
}

/// True if `v` is used as a loop bound or copy length (count evidence).
fn is_count_like(facts: &FunctionFacts, v: ExprId) -> bool {
    is_guard_bound(facts, v) || facts.copies.iter().any(|c| facts.arena.contains(c.len, v))
}

/// Bounds of constant guards whose left side shares a free symbol with
/// the item location, ordered by guard pc (outermost first). Shared by
/// both engines: the probe only runs on the (rare) array-shaped paths, so
/// the tree engine gains nothing from precomputing it.
fn const_guard_bounds(facts: &FunctionFacts, item_syms: &[u32]) -> Vec<u64> {
    let arena = &facts.arena;
    let mut out: Vec<(usize, u64)> = Vec::new();
    for g in &facts.guards {
        let ExprKind::Binary(BinOp::Lt, lhs, rhs) = *arena.kind(g.cond) else {
            continue;
        };
        if arena.depends_on_calldata(lhs) {
            continue; // Vyper value range check, not a bound check
        }
        let Some(bound) = arena.eval(rhs).and_then(|v| v.as_u64()) else {
            continue;
        };
        let lsyms = arena.free_syms(lhs);
        if lsyms.is_empty() || !lsyms.iter().all(|s| item_syms.contains(s)) {
            continue;
        }
        out.push((g.pc, bound));
    }
    out.sort_by_key(|(pc, _)| *pc);
    out.dedup();
    out.into_iter().map(|(_, b)| b).collect()
}

/// Loop bounds governing a copy by pc-range containment, outermost
/// first.
fn loop_bounds_for(facts: &FunctionFacts, copy: &CopyFact) -> Vec<Bound> {
    let mut out: Vec<(usize, Bound)> = Vec::new();
    for g in &facts.guards {
        let Some(exit) = g.loop_exit_pc else { continue };
        if !(g.pc < copy.pc && copy.pc < exit) {
            continue;
        }
        let ExprKind::Binary(BinOp::Lt, _, rhs) = *facts.arena.kind(g.cond) else {
            continue;
        };
        let bound = match facts.arena.eval(rhs).and_then(|v| v.as_u64()) {
            Some(b) => Bound::Const(b),
            None => Bound::Dynamic,
        };
        out.push((g.pc, bound));
    }
    out.sort_by_key(|(pc, _)| *pc);
    out.into_iter().map(|(_, b)| b).collect()
}

/// Relabels Solidity-flavoured rule applications with their Vyper
/// counterparts once Vyper evidence is established, and records R20.
fn vyperise(rules: &mut Vec<RuleId>) {
    for r in rules.iter_mut() {
        *r = match *r {
            RuleId::R4 => RuleId::R25,
            RuleId::R3 => RuleId::R24,
            RuleId::R18 => RuleId::R31,
            other => other,
        };
    }
    rules.insert(0, RuleId::R20);
}

/// Fine-grained basic-type refinement (rules R11–R18 and R26–R31).
fn refine_from_usages(uses: &[&Usage]) -> (AbiType, Vec<RuleId>) {
    let mut mask_low: Option<u32> = None;
    let mut mask_high: Option<u32> = None;
    let mut signext: Option<u64> = None;
    let mut dbl_iszero = false;
    let mut byte_extract = false;
    let mut signed_op = false;
    let mut arithmetic = false;
    let mut range_uns: Vec<U256> = Vec::new();
    let mut range_sgn: Vec<U256> = Vec::new();
    for u in uses {
        match u {
            Usage::MaskAnd(m) => {
                if let Some(k) = low_mask_bytes(*m) {
                    if k < 32 {
                        mask_low = Some(mask_low.map_or(k, |p| p.min(k)));
                    }
                } else if let Some(k) = high_mask_bytes(*m) {
                    if k < 32 {
                        mask_high = Some(mask_high.map_or(k, |p| p.min(k)));
                    }
                }
            }
            Usage::SignExtendFrom(b) => signext = Some(signext.map_or(*b, |p: u64| p.min(*b))),
            Usage::DoubleIsZero => dbl_iszero = true,
            Usage::ByteExtract => byte_extract = true,
            Usage::SignedOp => signed_op = true,
            Usage::Arithmetic => arithmetic = true,
            Usage::RangeUnsigned(c) => range_uns.push(*c),
            Usage::RangeSigned(c) => range_sgn.push(*c),
        }
    }
    // Decision order mirrors Fig. 13's refinement paths.
    if let Some(b) = signext {
        if b < 31 {
            return (AbiType::Int((8 * (b + 1)) as u16), vec![RuleId::R13]);
        }
    }
    if dbl_iszero {
        return (AbiType::Bool, vec![RuleId::R14]);
    }
    if let Some(k) = mask_high {
        return (AbiType::FixedBytes(k as u8), vec![RuleId::R12]);
    }
    if let Some(k) = mask_low {
        if k == 20 && !arithmetic {
            return (AbiType::Address, vec![RuleId::R11, RuleId::R16]);
        }
        return (AbiType::Uint((8 * k) as u16), vec![RuleId::R11]);
    }
    // Vyper range checks.
    let int128_bound = U256::ONE << 127u32;
    let decimal_bound = int128_bound * U256::from(10_000_000_000u64);
    for c in &range_sgn {
        if signed_bound_matches(*c, decimal_bound) {
            return (AbiType::Int(168), vec![RuleId::R29]);
        }
    }
    for c in &range_sgn {
        if signed_bound_matches(*c, int128_bound) {
            return (AbiType::Int(128), vec![RuleId::R28]);
        }
    }
    if signed_op || !range_sgn.is_empty() {
        return (AbiType::Int(256), vec![RuleId::R15]);
    }
    for c in &range_uns {
        if *c == U256::from(2u64) {
            return (AbiType::Bool, vec![RuleId::R30]);
        }
        if *c == U256::ONE << 160u32 {
            return (AbiType::Address, vec![RuleId::R27]);
        }
    }
    if byte_extract {
        return (AbiType::FixedBytes(32), vec![RuleId::R18]);
    }
    (AbiType::Uint(256), Vec::new())
}

/// `c == upper` or `c == -upper - 1` (the lower-bound constant of a signed
/// range check).
fn signed_bound_matches(c: U256, upper: U256) -> bool {
    c == upper || c == upper.wrapping_neg() - U256::ONE
}

/// Matches `2^(8k) - 1` low masks, returning `k`.
fn low_mask_bytes(m: U256) -> Option<u32> {
    (1..=32u32).find(|&k| m == U256::low_mask(8 * k))
}

/// Matches high masks of `k` bytes of `0xff`.
fn high_mask_bytes(m: U256) -> Option<u32> {
    (1..=32u32).find(|&k| m == U256::high_mask(8 * k))
}

/// True when no intermediate `CALLDATALOAD` sits between `loc` and `o`:
/// every calldata word inside `loc` that contains `o` *is* `o`.
fn is_one_level(arena: &ExprArena, loc: ExprId, o: ExprId) -> bool {
    !arena.has_load_between(loc, o)
}

/// Free symbols occurring outside every nested `CalldataWord` — the index
/// symbols that scale *this* location (ancestor markers carry their own
/// index symbols inside their load subtrees and must not leak here).
fn syms_outside(arena: &ExprArena, loc: ExprId) -> Vec<u32> {
    let mut out = Vec::new();
    arena.walk_outside_loads(loc, |k| {
        if let ExprKind::FreeSym(id) = *k {
            out.push(id);
        }
    });
    out.sort_unstable();
    out.dedup();
    out
}

/// Like [`ExprArena::contains_mul_by`]`(32)` but only outside nested loads.
fn mul32_outside(arena: &ExprArena, loc: ExprId) -> bool {
    let mut found = false;
    arena.walk_outside_loads(loc, |k| found |= is_mul32(arena, k));
    found
}

/// A multiplication with the constant 32 as an operand.
fn is_mul32(arena: &ExprArena, k: &ExprKind) -> bool {
    let k32 = Some(U256::from(32u64));
    matches!(*k, ExprKind::Binary(BinOp::Mul, a, b) if arena.as_const(a) == k32 || arena.as_const(b) == k32)
}

/// A location's constant calldata offset, if it is a constant that fits
/// `u64`.
fn const_offset(arena: &ExprArena, loc: ExprId) -> Option<u64> {
    arena.as_const(loc).and_then(|v| v.as_u64())
}

struct LoadGroup {
    loc: ExprId,
    value: ExprId,
    const_pos: Option<u64>,
}

fn group_loads(arena: &ExprArena, loads: &[LoadFact]) -> Vec<LoadGroup> {
    let mut out: Vec<LoadGroup> = Vec::new();
    for l in loads {
        if out.iter().any(|g| g.loc == l.loc) {
            continue;
        }
        out.push(LoadGroup {
            loc: l.loc,
            value: l.value,
            const_pos: arena.eval(l.loc).and_then(|v| v.as_u64()),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refine_defaults_to_uint256() {
        let (ty, rules) = refine_from_usages(&[]);
        assert_eq!(ty, AbiType::Uint(256));
        assert!(rules.is_empty());
    }

    #[test]
    fn refine_masks() {
        let m = Usage::MaskAnd(U256::low_mask(8));
        let (ty, _) = refine_from_usages(&[&m]);
        assert_eq!(ty, AbiType::Uint(8));
        let m = Usage::MaskAnd(U256::high_mask(32));
        let (ty, _) = refine_from_usages(&[&m]);
        assert_eq!(ty, AbiType::FixedBytes(4));
    }

    #[test]
    fn refine_address_vs_uint160() {
        let m = Usage::MaskAnd(U256::low_mask(160));
        let (ty, rules) = refine_from_usages(&[&m]);
        assert_eq!(ty, AbiType::Address);
        assert!(rules.contains(&RuleId::R16));
        let a = Usage::Arithmetic;
        let (ty, _) = refine_from_usages(&[&m, &a]);
        assert_eq!(ty, AbiType::Uint(160));
    }

    #[test]
    fn refine_signed() {
        let s = Usage::SignExtendFrom(0);
        assert_eq!(refine_from_usages(&[&s]).0, AbiType::Int(8));
        let s = Usage::SignExtendFrom(15);
        assert_eq!(refine_from_usages(&[&s]).0, AbiType::Int(128));
        let s = Usage::SignedOp;
        assert_eq!(refine_from_usages(&[&s]).0, AbiType::Int(256));
    }

    #[test]
    fn refine_vyper_ranges() {
        let up = Usage::RangeSigned(U256::ONE << 127u32);
        assert_eq!(refine_from_usages(&[&up]).0, AbiType::Int(128));
        let dec = Usage::RangeSigned((U256::ONE << 127u32) * U256::from(10_000_000_000u64));
        assert_eq!(refine_from_usages(&[&dec]).0, AbiType::Int(168));
        let lower = Usage::RangeSigned((U256::ONE << 127u32).wrapping_neg() - U256::ONE);
        assert_eq!(refine_from_usages(&[&lower]).0, AbiType::Int(128));
        let b = Usage::RangeUnsigned(U256::from(2u64));
        assert_eq!(refine_from_usages(&[&b]).0, AbiType::Bool);
        let a = Usage::RangeUnsigned(U256::ONE << 160u32);
        assert_eq!(refine_from_usages(&[&a]).0, AbiType::Address);
    }

    #[test]
    fn refine_bool_and_bytes32() {
        let z = Usage::DoubleIsZero;
        assert_eq!(refine_from_usages(&[&z]).0, AbiType::Bool);
        let b = Usage::ByteExtract;
        assert_eq!(refine_from_usages(&[&b]).0, AbiType::FixedBytes(32));
    }

    #[test]
    fn facts_index_matches_linear_scans() {
        use crate::facts::{LoadFact, UseFact};

        let mut f = FunctionFacts::default();
        let a = &mut f.arena;
        let base = a.c64(4);
        let o = a.calldata_word(base);
        let c32 = a.c64(32);
        let inner_loc = a.bin(BinOp::Add, o, c32);
        let inner = a.calldata_word(inner_loc);
        let k24 = a.c64(0x24);
        f.add_load(LoadFact {
            pc: 1,
            loc: base,
            value: o,
        });
        f.add_load(LoadFact {
            pc: 2,
            loc: inner_loc,
            value: inner,
        });
        // Duplicate key within one use must still count that use once.
        f.add_use(UseFact {
            pc: 3,
            keys: vec![base, base],
            usage: Usage::Arithmetic,
        });
        f.add_use(UseFact {
            pc: 4,
            keys: vec![k24],
            usage: Usage::ByteExtract,
        });

        let idx = FactsIndex::build(&f);

        // Containment agrees with the linear `contains` scan: the second
        // load addresses through `o`, the first does not.
        let by_o = idx.loads_by_node.get(&o).unwrap();
        assert_eq!(by_o, &vec![1u32]);
        assert!(!idx.loads_by_node.contains_key(&inner));

        // Key table: one entry per use, original order, no duplicates.
        assert_eq!(idx.uses_by_key.get(&base), Some(&vec![0u32]));
        assert_eq!(idx.uses_by_key.get(&k24), Some(&vec![1u32]));

        // Offset table supports range queries over parsed constants.
        let in_range: Vec<u32> = idx
            .uses_by_offset
            .range(0u64..0x24)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        assert_eq!(in_range, vec![0]);
    }
}
