//! SigRec's top-level pipeline (Fig. 12 of the paper).
//!
//! Bytecode → disassembly → dispatcher extraction → per-function TASE →
//! rule-based inference → recovered [`FunctionSignature`]s.
//!
//! Every entry point funnels through one internal body: `SigRec::plan`
//! turns bytecode into a `ContractPlan` (disassembly + dispatch table),
//! `SigRec::run_entry` explores and infers one dispatch-table entry, and
//! `SigRec::seal` memoises the assembled contract (all crate-private).
//! `recover`/`recover_cold`/`explain` are thin drivers over those three
//! steps, and `recover_batch` calls them directly so it can isolate a
//! panic to the entry that raised it. Whole contracts are memoised in a
//! shared content-addressed [`RecoveryCache`] by `keccak256(code)`; a
//! contract that misses has every entry explored.

use crate::cache::{CacheStats, CachedContract, RecoveryCache};
use crate::exec::{ExecStats, Tase, TaseConfig};
use crate::extract::{extract_dispatch_diag, DispatchEntry};
use crate::facts::FunctionFacts;
use crate::indirect::detect_forwarder;
use crate::infer::{infer_with, Language};
use crate::outcome::{
    assemble_diagnostics, BudgetKind, DelegateTarget, Diagnostic, RecoveryOutcome,
};
use crate::rules::RuleId;
use crate::store::StoreStats;
use sigrec_abi::{AbiType, FunctionSignature, Selector};
use sigrec_evm::{keccak256, Disassembly};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recovered function.
#[derive(Clone, Debug)]
pub struct RecoveredFunction {
    /// The function id found in the dispatcher.
    pub selector: Selector,
    /// pc of the function body.
    pub entry: usize,
    /// Recovered parameter types in order.
    pub params: Vec<AbiType>,
    /// Detected source language (rule R20).
    pub language: Language,
    /// Rules applied while recovering this function.
    pub rules: Vec<RuleId>,
    /// Budgets the exploration ran into (empty for a fully explored
    /// function; [`BudgetKind::ForkCap`]/[`BudgetKind::VisitCap`] are the
    /// expected loop abstraction, the rest mean the recovery is partial).
    pub budgets: Vec<BudgetKind>,
    /// Wall-clock time spent exploring and inferring this function. A
    /// contract-level cache hit returns the time memoised with it.
    pub elapsed: Duration,
    /// Set when the body forwards execution via `DELEGATECALL` (diamond
    /// facet routing, per-entry proxies): `params`/`rules` are empty —
    /// the facts describe the router, not the real function — and the
    /// outcome carries a matching
    /// [`Diagnostic::UnresolvedIndirection`]. Resolve it with
    /// [`SigRec::recover_linked`].
    pub delegate: Option<DelegateTarget>,
}

impl RecoveredFunction {
    /// The recovered signature (placeholder name, see
    /// [`FunctionSignature::recovered`]).
    pub fn signature(&self) -> FunctionSignature {
        FunctionSignature::recovered(self.selector, self.params.clone())
    }
}

/// How many proxy hops [`SigRec::recover_linked`] follows before giving
/// up. Real deployments chain at most proxy → beacon → implementation;
/// anything deeper is adversarial.
const MAX_LINK_DEPTH: usize = 4;

/// Implementation code supplied alongside a proxy/diamond recovery:
/// maps the 20-byte addresses embedded in (or routed through) the
/// deployed code to the runtime bytecode living at those addresses.
#[derive(Clone, Debug, Default)]
pub struct LinkSet {
    code: std::collections::HashMap<[u8; 20], Vec<u8>>,
}

impl LinkSet {
    /// An empty link set (every indirection stays unresolved).
    pub fn new() -> Self {
        Self::default()
    }

    /// Supplies the runtime code deployed at `addr`.
    pub fn insert(&mut self, addr: [u8; 20], code: Vec<u8>) {
        self.code.insert(addr, code);
    }

    /// The code linked at `addr`, if supplied.
    pub fn get(&self, addr: &[u8; 20]) -> Option<&[u8]> {
        self.code.get(addr).map(Vec::as_slice)
    }

    /// Number of linked addresses.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when no addresses are linked.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

/// The SigRec recovery tool.
///
/// Cloning is cheap and shares the recovery cache: batch workers clone one
/// `SigRec` and every worker profits from results the others memoised.
///
/// # Examples
///
/// ```
/// use sigrec_core::SigRec;
/// use sigrec_abi::FunctionSignature;
/// use sigrec_solc::{compile_single, CompilerConfig, FunctionSpec, Visibility};
///
/// let sig = FunctionSignature::parse("transfer(address,uint256)").unwrap();
/// let contract = compile_single(
///     FunctionSpec::new(sig.clone(), Visibility::External),
///     &CompilerConfig::default(),
/// );
/// let recovered = SigRec::new().recover(&contract.code);
/// assert_eq!(recovered.len(), 1);
/// assert_eq!(recovered[0].signature().param_list(), "(address,uint256)");
/// assert!(sig.matches(&recovered[0].signature()));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SigRec {
    config: TaseConfig,
    cache: RecoveryCache,
    stats: Option<Arc<StatsAccum>>,
}

/// How one pipeline invocation interacts with the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CacheMode {
    /// Read and write the contract cache.
    ReadWrite,
    /// Recompute everything; populate the cache on the way out.
    WriteOnly,
    /// Recompute everything; leave the cache untouched.
    Bypass,
}

/// Everything needed to recover one contract's functions independently:
/// the disassembly and the dispatch table. Built once per contract by
/// [`SigRec::plan`]; [`SigRec::run_entry`] then recovers its entries.
#[derive(Debug)]
pub(crate) struct ContractPlan {
    /// `keccak256(code)` when the contract level participates in caching.
    key: Option<[u8; 32]>,
    /// The memoised result, when the contract-level cache already has one
    /// (the table is empty in that case).
    pub(crate) cached: Option<Arc<CachedContract>>,
    /// The contract's instructions and loop heads, shared by every entry
    /// of the plan; empty for contract-level cache hits.
    disasm: Disassembly,
    /// Dispatch table, in dispatcher order.
    pub(crate) table: Vec<DispatchEntry>,
    /// Extraction-level diagnostics (dispatcher truncation, malformed
    /// code) observed while planning.
    pub(crate) extraction_diags: Vec<Diagnostic>,
    /// The contract's wall-clock deadline, stamped at plan time from
    /// [`TaseConfig::max_wall_time`] and shared by every entry of the
    /// plan — one pathological function cannot grant the others a fresh
    /// clock.
    pub(crate) deadline: Option<Instant>,
}

impl SigRec {
    /// A recoverer with default exploration budgets and a fresh cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the TASE budgets.
    pub fn with_config(config: TaseConfig) -> Self {
        SigRec {
            config,
            cache: RecoveryCache::new(),
            stats: None,
        }
    }

    /// Uses `cache` instead of a fresh one — lets independent `SigRec`
    /// instances share memoised recoveries.
    pub fn with_cache(mut self, cache: RecoveryCache) -> Self {
        self.cache = cache;
        self
    }

    /// Enables executor profiling: every recovery performed through this
    /// instance (and its clones — batch workers share the accumulator the
    /// way they share the cache) feeds the [`PipelineStats`] returned by
    /// [`SigRec::exec_stats`]: executor counters, entries explored and
    /// the time spent sweeping cold code. Off by default; when off,
    /// neither the fork-cost probes nor the sweep's clock reads run.
    pub fn with_exec_stats(mut self) -> Self {
        self.config.collect_stats = true;
        self.stats = Some(Arc::new(StatsAccum::default()));
        self
    }

    /// A snapshot of the accumulated executor profile, if
    /// [`SigRec::with_exec_stats`] enabled collection. When the shared
    /// cache carries a persistent tier, its [`StoreStats`] ride along.
    pub fn exec_stats(&self) -> Option<PipelineStats> {
        self.stats.as_ref().map(|acc| {
            let mut stats = acc.snapshot();
            stats.store = self.cache.store_stats();
            stats
        })
    }

    /// A snapshot of the shared cache's hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A snapshot of the persistent tier's counters, when the shared
    /// cache has a [`PersistentStore`](crate::PersistentStore) attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.cache.store_stats()
    }

    /// Flushes the cache's persistent tier (segment fsync + index
    /// write); a no-op for a memory-only cache. Call on graceful
    /// shutdown so the next open skips the segment scan.
    pub fn flush_store(&self) -> std::io::Result<()> {
        self.cache.flush_store()
    }

    /// Recovers the signatures of every public/external function in the
    /// runtime bytecode, memoising the result in the shared cache.
    ///
    /// A thin wrapper over [`SigRec::recover_with_outcome`] that drops
    /// the diagnostics.
    pub fn recover(&self, code: &[u8]) -> Vec<RecoveredFunction> {
        self.recover_with_outcome(code).functions
    }

    /// Like [`SigRec::recover`], also reporting *why* the result may be
    /// partial: budget exhaustion per function, dispatcher-walk
    /// truncation, and malformed-code findings.
    pub fn recover_with_outcome(&self, code: &[u8]) -> RecoveryOutcome {
        let plan = self.plan(code, CacheMode::ReadWrite);
        if let Some(hit) = &plan.cached {
            return RecoveryOutcome {
                diagnostics: assemble_diagnostics(&hit.extraction_diags, &hit.functions),
                functions: hit.functions.as_ref().clone(),
            };
        }
        let functions = Arc::new(self.run_entries(&plan, CacheMode::ReadWrite));
        self.seal(&plan, &functions);
        RecoveryOutcome {
            diagnostics: assemble_diagnostics(&plan.extraction_diags, &functions),
            functions: Arc::unwrap_or_clone(functions),
        }
    }

    /// Like [`SigRec::recover`] but bypassing the cache entirely — every
    /// function is re-explored. The reference path for equivalence tests
    /// and conformance.
    pub fn recover_cold(&self, code: &[u8]) -> Vec<RecoveredFunction> {
        self.recover_cold_with_outcome(code).functions
    }

    /// Cache-bypassing variant of [`SigRec::recover_with_outcome`].
    pub fn recover_cold_with_outcome(&self, code: &[u8]) -> RecoveryOutcome {
        let plan = self.plan(code, CacheMode::Bypass);
        let functions = self.run_entries(&plan, CacheMode::Bypass);
        RecoveryOutcome {
            diagnostics: assemble_diagnostics(&plan.extraction_diags, &functions),
            functions,
        }
    }

    /// Like [`SigRec::recover`] but resolving delegatecall indirection
    /// through `links`: whole-contract forwarders (minimal proxies)
    /// recover the linked implementation's signatures, and per-entry
    /// routers (diamond facets) splice the linked facet's matching
    /// function in. Targets missing from `links` keep their
    /// [`Diagnostic::UnresolvedIndirection`] (visible through
    /// [`SigRec::recover_linked_with_outcome`]).
    pub fn recover_linked(&self, code: &[u8], links: &LinkSet) -> Vec<RecoveredFunction> {
        self.recover_linked_with_outcome(code, links).functions
    }

    /// Outcome-reporting variant of [`SigRec::recover_linked`].
    ///
    /// Each contract in the chain is recovered through the normal
    /// pipeline and memoised *under its own key only* — the linked
    /// combination is never cached, because it depends on the caller's
    /// link set, not on any one contract's bytes (see INTERNALS.md).
    /// Proxy chains are followed to a small depth bound, and a target
    /// already on the current chain (cyclic routing) keeps its
    /// diagnostic instead of recursing.
    pub fn recover_linked_with_outcome(&self, code: &[u8], links: &LinkSet) -> RecoveryOutcome {
        self.resolve_links(code, links, &mut Vec::new())
    }

    fn resolve_links(
        &self,
        code: &[u8],
        links: &LinkSet,
        chain: &mut Vec<[u8; 32]>,
    ) -> RecoveryOutcome {
        let mut out = self.recover_with_outcome(code);
        if chain.len() >= MAX_LINK_DEPTH {
            return out;
        }
        let key = keccak256(code);
        if chain.contains(&key) {
            return out;
        }
        chain.push(key);
        // Whole-contract forwarder: the implementation's result *is*
        // the proxy's result.
        let whole = out.diagnostics.iter().position(|d| {
            matches!(
                d,
                Diagnostic::UnresolvedIndirection {
                    selector: None,
                    target: DelegateTarget::Address(a),
                } if links.get(a).is_some()
            )
        });
        if let Some(i) = whole {
            let Diagnostic::UnresolvedIndirection {
                target: DelegateTarget::Address(addr),
                ..
            } = out.diagnostics[i].clone()
            else {
                unreachable!("position matched an UnresolvedIndirection");
            };
            let impl_code = links
                .get(&addr)
                .expect("position checked the link")
                .to_vec();
            let resolved = self.resolve_links(&impl_code, links, chain);
            out.diagnostics.remove(i);
            out.functions = resolved.functions;
            out.diagnostics.extend(resolved.diagnostics);
            chain.pop();
            return out;
        }
        // Per-entry routing (diamond facets): splice each linked
        // facet's matching function over the router stub.
        let mut kept = Vec::new();
        for d in std::mem::take(&mut out.diagnostics) {
            let resolved = match &d {
                Diagnostic::UnresolvedIndirection {
                    selector: Some(sel),
                    target: DelegateTarget::Address(a),
                } => links.get(a).map(|c| (*sel, c.to_vec())),
                _ => None,
            };
            let Some((sel, facet_code)) = resolved else {
                kept.push(d);
                continue;
            };
            let facet = self.resolve_links(&facet_code, links, chain);
            match facet.functions.iter().find(|f| f.selector == sel) {
                // A facet function that still carries a delegate fact is
                // itself an unresolved router stub — splicing it in
                // (cyclic routing, depth cut) would silently drop the
                // indirection. Only a genuinely resolved body counts.
                Some(f) if f.delegate.is_none() => {
                    if let Some(slot) = out.functions.iter_mut().find(|g| g.selector == sel) {
                        *slot = f.clone();
                    }
                }
                // The facet does not implement the routed selector (or
                // only re-routes it): the indirection stays unresolved.
                _ => kept.push(d),
            }
        }
        out.diagnostics = kept;
        chain.pop();
        out
    }

    /// Stage 1 of the pipeline: contract-level cache probe (ReadWrite
    /// only), disassembly and dispatch extraction. On a contract-level
    /// hit the plan carries the memoised result and an empty table.
    pub(crate) fn plan(&self, code: &[u8], mode: CacheMode) -> ContractPlan {
        let deadline = self.config.max_wall_time.map(|d| Instant::now() + d);
        let key = match mode {
            CacheMode::Bypass => None,
            _ => Some(keccak256(code)),
        };
        if mode == CacheMode::ReadWrite {
            let key = key.as_ref().expect("ReadWrite computes the contract key");
            if let Some(hit) = self.cache.lookup_contract(key) {
                return ContractPlan {
                    key: Some(*key),
                    cached: Some(hit),
                    disasm: Disassembly::new(&[]),
                    table: Vec::new(),
                    extraction_diags: Vec::new(),
                    deadline,
                };
            }
        }
        // The one sweep over the code, which also finds its loop heads:
        // what `PipelineStats::compile_time` times.
        let sweep_start = self.stats.as_ref().map(|_| Instant::now());
        let disasm = Disassembly::new(code);
        if let (Some(acc), Some(t0)) = (&self.stats, sweep_start) {
            acc.compile_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if key.is_some() {
            self.cache.count_cold_plan();
        }
        let mut extraction = extract_dispatch_diag(&disasm);
        // A clean, empty dispatch table is where whole-contract
        // forwarders (minimal proxies, fallback-only upgradeable
        // proxies) live: check for one so an empty result is never
        // silent. The verdict is a pure function of the code bytes, so
        // sealing it with the contract entry is sound. A truncated or
        // malformed walk keeps its own diagnostic instead — fabricating
        // a target from half-read bytes would be worse than none.
        if extraction.table.is_empty() && extraction.diagnostics.is_empty() {
            if let Some(target) = detect_forwarder(&disasm) {
                extraction
                    .diagnostics
                    .push(Diagnostic::UnresolvedIndirection {
                        selector: None,
                        target,
                    });
            }
        }
        ContractPlan {
            key,
            cached: None,
            disasm,
            table: extraction.table,
            extraction_diags: extraction.diagnostics,
            deadline,
        }
    }

    /// Stage 2 over every entry of a plan, in dispatcher order, recycling
    /// each entry's facts.
    fn run_entries(&self, plan: &ContractPlan, mode: CacheMode) -> Vec<RecoveredFunction> {
        (0..plan.table.len())
            .map(|i| {
                let (function, facts) = self.run_entry(plan, i, mode);
                facts.recycle();
                function
            })
            .collect()
    }

    /// Stage 2: explores and infers the `idx`-th dispatch-table entry of
    /// a plan. Safe to call for different entries concurrently. `mode`
    /// only decides whether the entry counts in
    /// [`CacheStats::function_misses`] and whether the
    /// `disagree_on_selector` fault fires.
    pub(crate) fn run_entry(
        &self,
        plan: &ContractPlan,
        idx: usize,
        mode: CacheMode,
    ) -> (RecoveredFunction, FunctionFacts) {
        let entry = plan.table[idx];
        let start = Instant::now();
        if mode == CacheMode::ReadWrite {
            self.cache.count_function_run();
        }
        if self.config.panic_on_selector == Some(entry.selector.as_u32()) {
            panic!("injected panic on selector {}", entry.selector);
        }
        // A contract already past its deadline: skip the per-function
        // analysis setup entirely — each remaining entry returns in
        // microseconds with empty facts and the `Deadline` budget, so a
        // wide dispatcher cannot stretch the overrun.
        if plan.deadline.is_some_and(|d| Instant::now() >= d) {
            let mut facts = FunctionFacts::default();
            facts.add_budget(BudgetKind::Deadline);
            let result = infer_with(&facts, self.config.infer_engine);
            let function = RecoveredFunction {
                selector: entry.selector,
                entry: entry.entry,
                params: result.params,
                language: result.language,
                rules: result.rules,
                budgets: facts.budgets.clone(),
                elapsed: start.elapsed(),
                delegate: None,
            };
            return (function, facts);
        }
        let (facts, exec) = Tase::new(&plan.disasm, self.config)
            .with_deadline(plan.deadline)
            .explore_stats(entry.entry);
        if let Some(acc) = &self.stats {
            acc.record(&exec);
        }
        let mut result = infer_with(&facts, self.config.infer_engine);
        // A body that delegatecalls is a router: its calldata facts
        // describe the forwarding glue, not the real function, so no
        // parameter list inferred from them is trustworthy. Report an
        // empty signature plus the delegate fact (which `assemble_
        // diagnostics` turns into `UnresolvedIndirection`) instead of a
        // phantom one.
        if facts.delegate.is_some() {
            result.params.clear();
            result.rules.clear();
        }
        if self.config.disagree_on_selector == Some(entry.selector.as_u32())
            && mode != CacheMode::Bypass
        {
            // Injected disagreement (see `TaseConfig::
            // disagree_on_selector`): a phantom trailing parameter that
            // `recover_cold`, the oracle's reference, never reports.
            result.params.push(AbiType::Bool);
        }
        let function = RecoveredFunction {
            selector: entry.selector,
            entry: entry.entry,
            params: result.params,
            language: result.language,
            rules: result.rules,
            budgets: facts.budgets.clone(),
            elapsed: start.elapsed(),
            delegate: facts.delegate,
        };
        (function, facts)
    }

    /// Stage 3: memoises the assembled contract once every entry is done,
    /// sharing the caller's `Arc` with the memory tier instead of
    /// copying the functions.
    /// A no-op in [`CacheMode::Bypass`] plans (no contract key), and for
    /// deadline-truncated results — those are nondeterministic, and a
    /// memoised one would replay an arbitrary cut on every warm lookup.
    /// The same gate protects the persistent tier: a result skipped here
    /// never reaches `store_contract`, hence never reaches a segment
    /// (and the store re-checks on its own — see
    /// [`PersistentStore::append`](crate::PersistentStore::append)).
    pub(crate) fn seal(&self, plan: &ContractPlan, functions: &Arc<Vec<RecoveredFunction>>) {
        let deadline_hit = functions
            .iter()
            .any(|f| f.budgets.contains(&BudgetKind::Deadline));
        if deadline_hit {
            return;
        }
        if let Some(key) = plan.key {
            self.cache
                .store_shared(key, Arc::clone(functions), plan.extraction_diags.clone());
        }
    }
}

/// Thread-safe accumulator behind [`SigRec::with_exec_stats`]; shared by
/// clones the way the cache is.
///
/// All counters use `Ordering::Relaxed`, which is sound here because the
/// accumulator is write-mostly telemetry, not synchronisation:
///
/// - every counter is an independent monotonic sum (or `fetch_max`), so
///   there is no cross-counter invariant a reordering could break — a
///   concurrent snapshot may observe counter A's bump before counter B's
///   from the same `record` call, and nothing consumes them together as
///   an atomic unit;
/// - each individual `fetch_add`/`fetch_max` is still a single atomic
///   read-modify-write, so no increment is ever lost, regardless of how
///   many batch workers record concurrently;
/// - quiescent snapshots — the ones tests and reports assert exact
///   totals on — are taken after the batch returns: its worker threads
///   have been joined (`std::thread::scope` exit), and the join itself
///   establishes the happens-before edge that makes every recorded value
///   visible.
///
/// Snapshots taken *while* workers run are advisory progress numbers and
/// may be mid-record; that is acceptable for telemetry and the price of
/// keeping `record` off the hot path's contention profile.
#[derive(Debug, Default)]
struct StatsAccum {
    steps: AtomicU64,
    paths: AtomicU64,
    forks: AtomicU64,
    fork_units: AtomicU64,
    worklist_peak: AtomicU64,
    functions: AtomicU64,
    /// Wall-clock spent sweeping cold contracts' code (plan stage).
    compile_nanos: AtomicU64,
}

impl StatsAccum {
    fn record(&self, exec: &ExecStats) {
        let r = Ordering::Relaxed;
        self.steps.fetch_add(exec.steps, r);
        self.paths.fetch_add(exec.paths, r);
        self.forks.fetch_add(exec.forks, r);
        self.fork_units.fetch_add(exec.fork_units_copied, r);
        self.worklist_peak.fetch_max(exec.worklist_peak, r);
        self.functions.fetch_add(1, r);
    }

    fn snapshot(&self) -> PipelineStats {
        let r = Ordering::Relaxed;
        PipelineStats {
            exec: ExecStats {
                steps: self.steps.load(r),
                paths: self.paths.load(r),
                forks: self.forks.load(r),
                fork_units_copied: self.fork_units.load(r),
                worklist_peak: self.worklist_peak.load(r),
            },
            functions_explored: self.functions.load(r),
            compile_time: Duration::from_nanos(self.compile_nanos.load(r)),
            // Stamped by `SigRec::exec_stats`, which can see the cache.
            store: None,
        }
    }
}

/// The executor profile accumulated by a [`SigRec::with_exec_stats`]
/// instance: summed [`ExecStats`] over every function explored
/// (contract-level cache hits explore nothing), the time spent sweeping
/// cold contracts' code, and the persistent tier's counters.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Summed executor counters (`worklist_peak` takes the max).
    pub exec: ExecStats,
    /// Dispatch entries explored and inferred.
    pub functions_explored: u64,
    /// Wall-clock spent at plan time sweeping each cold contract's code
    /// ([`Disassembly::new`], which also finds its loop-head guards).
    /// Zero when every contract was a contract-level cache hit.
    pub compile_time: Duration,
    /// The persistent tier's counters, when the shared cache has a
    /// [`PersistentStore`](crate::PersistentStore) attached — disk
    /// hits/misses, bytes moved, fsyncs, and the crash-recovery /
    /// seal-gate counters. `None` for a memory-only cache.
    pub store: Option<StoreStats>,
}

/// A diagnostic view of one function's recovery: what TASE saw and which
/// rules fired. Produced by [`SigRec::explain`].
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The recovered function.
    pub function: RecoveredFunction,
    /// Calldata loads observed (pc, location rendering).
    pub loads: Vec<(usize, String)>,
    /// Calldata copies observed (pc, source, length).
    pub copies: Vec<(usize, String, String)>,
    /// Comparison guards observed (pc, condition, is-loop-head).
    pub guards: Vec<(usize, String, bool)>,
    /// Paths explored by TASE.
    pub paths_explored: usize,
    /// True if a path was cut at an input-dependent jump.
    pub hit_symbolic_jump: bool,
}

impl SigRec {
    /// Like [`SigRec::recover`] but returning the evidence alongside each
    /// signature — the `sigrec --explain` view.
    ///
    /// The evidence requires re-running TASE, so cached signatures are not
    /// *read*, but the results are written through to the cache: an
    /// `explain` warms later `recover` calls on the same code.
    pub fn explain(&self, code: &[u8]) -> Vec<Explanation> {
        let plan = self.plan(code, CacheMode::WriteOnly);
        let analysed: Vec<(RecoveredFunction, FunctionFacts)> = (0..plan.table.len())
            .map(|i| self.run_entry(&plan, i, CacheMode::WriteOnly))
            .collect();
        let functions = Arc::new(analysed.iter().map(|(f, _)| f.clone()).collect());
        self.seal(&plan, &functions);
        analysed
            .into_iter()
            .map(|(function, facts)| {
                let show = |id| facts.arena.show(id).to_string();
                Explanation {
                    function,
                    loads: facts.loads.iter().map(|l| (l.pc, show(l.loc))).collect(),
                    copies: facts
                        .copies
                        .iter()
                        .map(|c| (c.pc, show(c.src), show(c.len)))
                        .collect(),
                    guards: facts
                        .guards
                        .iter()
                        .map(|g| (g.pc, show(g.cond), g.loop_exit_pc.is_some()))
                        .collect(),
                    paths_explored: facts.paths_explored,
                    hit_symbolic_jump: facts.hit_symbolic_jump,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigrec_solc::{compile, CompilerConfig, FunctionSpec, Visibility};

    /// End-to-end: compile a declaration, recover it, compare.
    fn recover_one(decl: &str, vis: Visibility) -> String {
        let sig = FunctionSignature::parse(decl).unwrap();
        let contract = compile(&[FunctionSpec::new(sig, vis)], &CompilerConfig::default());
        let rec = SigRec::new().recover(&contract.code);
        assert_eq!(rec.len(), 1, "one function expected for {decl}");
        rec[0].signature().param_list()
    }

    #[test]
    fn recovers_basic_types_external() {
        assert_eq!(recover_one("f(uint8)", Visibility::External), "(uint8)");
        assert_eq!(recover_one("f(uint256)", Visibility::External), "(uint256)");
        assert_eq!(recover_one("f(int16)", Visibility::External), "(int16)");
        assert_eq!(recover_one("f(int256)", Visibility::External), "(int256)");
        assert_eq!(recover_one("f(address)", Visibility::External), "(address)");
        assert_eq!(recover_one("f(uint160)", Visibility::External), "(uint160)");
        assert_eq!(recover_one("f(bool)", Visibility::External), "(bool)");
        assert_eq!(recover_one("f(bytes4)", Visibility::External), "(bytes4)");
        assert_eq!(recover_one("f(bytes32)", Visibility::External), "(bytes32)");
    }

    #[test]
    fn recovers_multi_param_order() {
        assert_eq!(
            recover_one("f(address,uint256,bool)", Visibility::External),
            "(address,uint256,bool)"
        );
    }

    #[test]
    fn recovers_static_arrays() {
        assert_eq!(
            recover_one("f(uint256[3])", Visibility::External),
            "(uint256[3])"
        );
        assert_eq!(
            recover_one("f(uint256[3][2])", Visibility::External),
            "(uint256[3][2])"
        );
        assert_eq!(recover_one("f(uint8[4])", Visibility::Public), "(uint8[4])");
        assert_eq!(
            recover_one("f(uint256[3][2])", Visibility::Public),
            "(uint256[3][2])"
        );
    }

    #[test]
    fn recovers_dynamic_arrays() {
        assert_eq!(recover_one("f(uint8[])", Visibility::External), "(uint8[])");
        assert_eq!(recover_one("f(uint8[])", Visibility::Public), "(uint8[])");
        assert_eq!(
            recover_one("f(uint256[2][])", Visibility::External),
            "(uint256[2][])"
        );
        assert_eq!(
            recover_one("f(uint256[2][])", Visibility::Public),
            "(uint256[2][])"
        );
    }

    #[test]
    fn recovers_bytes_and_string() {
        assert_eq!(recover_one("f(bytes)", Visibility::External), "(bytes)");
        assert_eq!(recover_one("f(bytes)", Visibility::Public), "(bytes)");
        assert_eq!(recover_one("f(string)", Visibility::External), "(string)");
        assert_eq!(recover_one("f(string)", Visibility::Public), "(string)");
    }

    #[test]
    fn recovers_nested_arrays() {
        assert_eq!(
            recover_one("f(uint256[][])", Visibility::External),
            "(uint256[][])"
        );
        assert_eq!(
            recover_one("f(uint8[][2])", Visibility::External),
            "(uint8[][2])"
        );
    }

    #[test]
    fn recovers_dynamic_struct() {
        assert_eq!(
            recover_one("f((uint256[],uint256))", Visibility::External),
            "((uint256[],uint256))"
        );
    }

    #[test]
    fn static_struct_flattens_as_paper_predicts() {
        // §2.3.1: indistinguishable from flattened members.
        assert_eq!(
            recover_one("f((uint256,uint256))", Visibility::External),
            "(uint256,uint256)"
        );
    }

    #[test]
    fn mixed_params() {
        assert_eq!(
            recover_one("f(uint8,bytes,bool)", Visibility::Public),
            "(uint8,bytes,bool)"
        );
        assert_eq!(
            recover_one("f(uint256[],address)", Visibility::Public),
            "(uint256[],address)"
        );
    }

    #[test]
    fn multiple_functions_recovered_independently() {
        let f1 = FunctionSpec::new(
            FunctionSignature::parse("alpha(uint8)").unwrap(),
            Visibility::External,
        );
        let f2 = FunctionSpec::new(
            FunctionSignature::parse("beta(bool,address)").unwrap(),
            Visibility::Public,
        );
        let contract = compile(&[f1.clone(), f2.clone()], &CompilerConfig::default());
        let rec = SigRec::new().recover(&contract.code);
        assert_eq!(rec.len(), 2);
        for r in &rec {
            if r.selector == f1.signature.selector {
                assert!(f1.signature.matches(&r.signature()));
            } else {
                assert!(f2.signature.matches(&r.signature()));
            }
        }
    }

    #[test]
    fn no_params_function() {
        assert_eq!(recover_one("f()", Visibility::External), "()");
    }

    #[test]
    fn explain_exposes_evidence() {
        let sig = FunctionSignature::parse("f(uint8[])").unwrap();
        let contract = compile(
            &[FunctionSpec::new(sig, Visibility::External)],
            &CompilerConfig::default(),
        );
        let ex = SigRec::new().explain(&contract.code);
        assert_eq!(ex.len(), 1);
        let e = &ex[0];
        assert_eq!(e.function.signature().param_list(), "(uint8[])");
        assert!(e.loads.len() >= 2, "offset + num + item loads");
        assert!(!e.guards.is_empty(), "the num bound check");
        assert!(e.paths_explored >= 1);
        assert!(!e.hit_symbolic_jump);
    }

    #[test]
    fn repeated_recover_hits_contract_cache() {
        let sig = FunctionSignature::parse("f(uint8,bool)").unwrap();
        let contract = compile(
            &[FunctionSpec::new(sig, Visibility::External)],
            &CompilerConfig::default(),
        );
        let sigrec = SigRec::new();
        let first = sigrec.recover(&contract.code);
        let second = sigrec.recover(&contract.code);
        assert_eq!(first.len(), second.len());
        assert_eq!(first[0].params, second[0].params);
        let stats = sigrec.cache_stats();
        assert_eq!(stats.contract_hits, 1);
        assert_eq!(stats.contract_misses, 1);
    }

    #[test]
    fn cold_recovery_never_touches_cache() {
        let sig = FunctionSignature::parse("f(address)").unwrap();
        let contract = compile(
            &[FunctionSpec::new(sig, Visibility::External)],
            &CompilerConfig::default(),
        );
        let sigrec = SigRec::new();
        let a = sigrec.recover_cold(&contract.code);
        let b = sigrec.recover_cold(&contract.code);
        assert_eq!(a[0].params, b[0].params);
        let stats = sigrec.cache_stats();
        assert_eq!(stats, Default::default());
    }

    #[test]
    fn explain_warms_recover() {
        let sig = FunctionSignature::parse("f(uint16)").unwrap();
        let contract = compile(
            &[FunctionSpec::new(sig, Visibility::External)],
            &CompilerConfig::default(),
        );
        let sigrec = SigRec::new();
        let ex = sigrec.explain(&contract.code);
        let rec = sigrec.recover(&contract.code);
        assert_eq!(sigrec.cache_stats().contract_hits, 1);
        assert_eq!(ex[0].function.params, rec[0].params);
    }

    #[test]
    fn clones_share_the_cache() {
        let sig = FunctionSignature::parse("f(bytes4)").unwrap();
        let contract = compile(
            &[FunctionSpec::new(sig, Visibility::External)],
            &CompilerConfig::default(),
        );
        let a = SigRec::new();
        let b = a.clone();
        a.recover(&contract.code);
        b.recover(&contract.code);
        assert_eq!(b.cache_stats().contract_hits, 1);
    }

    #[test]
    fn shared_external_cache() {
        let sig = FunctionSignature::parse("f(uint32)").unwrap();
        let contract = compile(
            &[FunctionSpec::new(sig, Visibility::External)],
            &CompilerConfig::default(),
        );
        let cache = crate::cache::RecoveryCache::new();
        let a = SigRec::new().with_cache(cache.clone());
        let b = SigRec::new().with_cache(cache);
        a.recover(&contract.code);
        b.recover(&contract.code);
        assert_eq!(b.cache_stats().contract_hits, 1);
    }
}
