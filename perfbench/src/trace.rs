//! The traced run: one thread drives the layers itself, calling each
//! public function in the order `SigRec::recover_with_outcome` and
//! `SigRec::seal` call them (`crates/core/src/pipeline.rs`), and records
//! one span per call.
//!
//! Spans never nest, so a layer's self time is the sum of its spans, and
//! whatever the traced run does between calls is the pipeline residual.
//! Where one public call covers two layers, the span goes to the outer
//! layer and the inner layer's own call is timed separately over the same
//! keys (see `run::replay_lookups`).

use sigrec_core::{
    body_span_hash, detect_forwarder, extract_dispatch_diag, infer_timed, BudgetKind,
    CachedFunction, Diagnostic, DispatchEntry, ProgramSource, RecoveredFunction, RecoveryCache,
    Tase, TaseConfig,
};
use sigrec_evm::{keccak256, Disassembly, Program};
use std::collections::HashMap;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The library's layers, by module, in [`Layer::ALL`] order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    Disasm,
    Extract,
    Program,
    Exec,
    Infer,
    Cache,
    Store,
    Batch,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Disasm,
        Layer::Extract,
        Layer::Program,
        Layer::Exec,
        Layer::Infer,
        Layer::Cache,
        Layer::Store,
        Layer::Batch,
    ];

    /// The library module the layer's calls belong to.
    pub fn module(self) -> &'static str {
        match self {
            Layer::Disasm => "evm::disasm",
            Layer::Extract => "core::extract",
            Layer::Program => "evm::program",
            Layer::Exec => "core::exec",
            Layer::Infer => "core::infer",
            Layer::Cache => "core::cache",
            Layer::Store => "core::store",
            Layer::Batch => "core::batch",
        }
    }
}

/// One call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    /// Index of the contract being recovered (counted across the run).
    pub contract: u32,
}

/// Work counted at the layer boundaries.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub instructions: u64,
    pub entries: u64,
    pub extract_diagnostics: u64,
    pub compiles: u64,
    pub blocks_compiled: u64,
    pub blocks_skipped: u64,
    pub functions: u64,
    pub steps: u64,
    pub paths: u64,
    pub forks: u64,
    pub fork_units_copied: u64,
    pub budget_cuts: u64,
    pub infer_index_ns: u64,
    pub infer_match_ns: u64,
    pub infer_refine_ns: u64,
    /// Explorations whose statistics probe disagreed on steps or paths.
    pub probe_mismatches: u64,
}

/// In-memory span recorder for one traced run.
pub struct Tracer {
    base: Instant,
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// Time spent inside requests on work that is not the system's:
    /// the fork-counter probe. Subtracted from the request latency.
    excluded: Duration,
    contract: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
            counts: Counts::default(),
            excluded: Duration::ZERO,
            contract: 0,
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.close(layer, start);
        out
    }

    fn close(&mut self, layer: Layer, start: u64) {
        let end = self.now();
        self.spans.push(Span {
            layer,
            start,
            end,
            contract: self.contract,
        });
    }

    /// Takes the probe time accumulated since the last call.
    pub fn take_excluded(&mut self) -> Duration {
        std::mem::take(&mut self.excluded)
    }

    /// Sum of span durations per layer, in nanoseconds, indexed like
    /// [`Layer::ALL`].
    pub fn busy(&self) -> [u64; Layer::ALL.len()] {
        let mut busy = [0; Layer::ALL.len()];
        for s in &self.spans {
            busy[s.layer as usize] += s.end - s.start;
        }
        busy
    }

    /// True when no two spans overlap — the condition under which the
    /// spans plus the residual add up to the wall time.
    pub fn spans_disjoint(&self) -> bool {
        self.spans.windows(2).all(|w| w[0].end <= w[1].start)
    }

    /// Writes every span as a 21-byte little-endian record: layer index
    /// into [`Layer::ALL`] (u8), contract (u32), start and end in
    /// nanoseconds since the run began (u64 each).
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            out.write_all(&[s.layer as u8])?;
            out.write_all(&s.contract.to_le_bytes())?;
            out.write_all(&s.start.to_le_bytes())?;
            out.write_all(&s.end.to_le_bytes())?;
        }
        out.flush()
    }
}

/// One contract, returned the way `recover_batch` hands it out.
pub type Item = (Arc<Vec<RecoveredFunction>>, Arc<Vec<Diagnostic>>);

/// `assemble_diagnostics` (crate-private in the library): extraction
/// diagnostics, then one budget diagnostic per budget and one
/// indirection diagnostic per router function.
fn assemble(extraction: &[Diagnostic], functions: &[RecoveredFunction]) -> Vec<Diagnostic> {
    let mut out = extraction.to_vec();
    for f in functions {
        for &kind in &f.budgets {
            out.push(Diagnostic::BudgetExhausted {
                selector: f.selector,
                entry: f.entry,
                kind,
            });
        }
        if let Some(target) = f.delegate {
            out.push(Diagnostic::UnresolvedIndirection {
                selector: Some(f.selector),
                target,
            });
        }
    }
    out
}

/// Each body's exclusive end: the next-larger dispatch entry, or the
/// code length (the pipeline's private `body_extents`).
fn body_extents(code_len: usize, table: &[DispatchEntry]) -> Vec<usize> {
    table
        .iter()
        .map(|e| {
            table
                .iter()
                .map(|o| o.entry)
                .filter(|&o| o > e.entry)
                .min()
                .unwrap_or(code_len)
        })
        .collect()
}

/// The traced pipeline over one shared cache.
pub struct Traced<'a> {
    pub cache: &'a RecoveryCache,
    pub config: TaseConfig,
}

impl Traced<'_> {
    /// `SigRec::recover_with_outcome` followed by its `seal`, one span
    /// per public call.
    pub fn recover(
        &self,
        t: &mut Tracer,
        code: &[u8],
    ) -> (Arc<Vec<RecoveredFunction>>, Vec<Diagnostic>) {
        t.contract += 1;
        let cache = self.cache;
        let (key, hit) = t.span(Layer::Cache, || {
            let key = keccak256(code);
            (key, cache.lookup_contract(&key))
        });
        if let Some(hit) = hit {
            let diagnostics = assemble(&hit.extraction_diags, &hit.functions);
            return (Arc::clone(&hit.functions), diagnostics);
        }
        let disasm = t.span(Layer::Disasm, || Disassembly::new(code));
        t.counts.instructions += disasm.instructions().len() as u64;
        let mut extraction = t.span(Layer::Extract, || extract_dispatch_diag(&disasm));
        if extraction.table.is_empty() && extraction.diagnostics.is_empty() {
            if let Some(target) = t.span(Layer::Extract, || detect_forwarder(&disasm)) {
                extraction
                    .diagnostics
                    .push(Diagnostic::UnresolvedIndirection {
                        selector: None,
                        target,
                    });
            }
        }
        t.counts.entries += extraction.table.len() as u64;
        t.counts.extract_diagnostics += extraction.diagnostics.len() as u64;
        let extents = body_extents(code.len(), &extraction.table);
        let entry_pcs: Vec<usize> = extraction.table.iter().map(|e| e.entry).collect();
        // A fresh compile is `evm::program` work; a memo or disk hit is
        // the cache's.
        let start = t.now();
        let (program, source) = cache.program_for(&key, &disasm, &entry_pcs);
        let compiled = source == ProgramSource::Compiled;
        t.close(
            if compiled {
                Layer::Program
            } else {
                Layer::Cache
            },
            start,
        );
        if compiled {
            t.counts.compiles += 1;
            t.counts.blocks_compiled += program.compiled_block_count() as u64;
            t.counts.blocks_skipped += program.uncompiled_block_count() as u64;
        }
        let functions: Vec<RecoveredFunction> = extraction
            .table
            .iter()
            .zip(&extents)
            .map(|(&entry, &extent)| self.run_entry(t, code, &disasm, &program, entry, extent))
            .collect();
        let functions = Arc::new(functions);
        // The seal: skipped for deadline-cut results, which the default
        // configuration never produces.
        if !functions
            .iter()
            .any(|f| f.budgets.contains(&BudgetKind::Deadline))
        {
            let persisted = compiled.then_some(&*program);
            let diagnostics = extraction.diagnostics.clone();
            t.span(Layer::Cache, || {
                cache.store_contract_with_program(key, functions.to_vec(), diagnostics, persisted)
            });
        }
        let diagnostics = assemble(&extraction.diagnostics, &functions);
        (functions, diagnostics)
    }

    /// `SigRec::run_function` in `ReadWrite` mode.
    fn run_entry(
        &self,
        t: &mut Tracer,
        code: &[u8],
        disasm: &Disassembly,
        program: &Arc<Program>,
        entry: DispatchEntry,
        extent: usize,
    ) -> RecoveredFunction {
        let cache = self.cache;
        let (hash, hit) = t.span(Layer::Cache, || {
            let hash = body_span_hash(code, entry.entry, extent);
            (hash, cache.lookup_function(hash, entry.entry))
        });
        if let Some(hit) = hit {
            return RecoveredFunction {
                selector: entry.selector,
                entry: entry.entry,
                params: hit.params,
                language: hit.language,
                rules: hit.rules,
                budgets: hit.budgets,
                elapsed: Duration::ZERO,
                delegate: hit.delegate,
            };
        }
        let config = self.config;
        let (facts, exec) = t.span(Layer::Exec, || {
            Tase::new(disasm, config)
                .with_deadline(None)
                .with_program(Arc::clone(program))
                .explore_stats(entry.entry)
        });
        self.probe_forks(t, disasm, program, entry.entry, exec.steps, exec.paths);
        t.counts.functions += 1;
        t.counts.steps += exec.steps;
        t.counts.paths += exec.paths;
        t.counts.budget_cuts += facts.budgets.iter().filter(|b| b.is_lossy()).count() as u64;
        let (mut result, timing) =
            t.span(Layer::Infer, || infer_timed(&facts, config.infer_engine));
        t.counts.infer_index_ns += timing.index_nanos;
        t.counts.infer_match_ns += timing.match_nanos;
        t.counts.infer_refine_ns += timing.refine_nanos;
        if facts.delegate.is_some() {
            result.params.clear();
            result.rules.clear();
        }
        let deadline_hit = facts.budgets.contains(&BudgetKind::Deadline);
        if !deadline_hit && !facts.visited_below_entry && facts.max_pc_end <= extent {
            let cached = CachedFunction {
                params: result.params.clone(),
                language: result.language,
                rules: result.rules.clone(),
                budgets: facts.budgets.clone(),
                delegate: facts.delegate,
            };
            t.span(Layer::Cache, || {
                cache.store_function(hash, entry.entry, cached)
            });
        }
        RecoveredFunction {
            selector: entry.selector,
            entry: entry.entry,
            params: result.params,
            language: result.language,
            rules: result.rules,
            budgets: facts.budgets,
            elapsed: Duration::ZERO,
            delegate: facts.delegate,
        }
    }

    /// The fork counters need `collect_stats`, whose probe would land in
    /// `exec.busy_ms`; a second, untimed exploration reads them instead.
    fn probe_forks(
        &self,
        t: &mut Tracer,
        disasm: &Disassembly,
        program: &Arc<Program>,
        entry: usize,
        steps: u64,
        paths: u64,
    ) {
        let t0 = Instant::now();
        let config = TaseConfig {
            collect_stats: true,
            ..self.config
        };
        let (_, probe) = Tase::new(disasm, config)
            .with_deadline(None)
            .with_program(Arc::clone(program))
            .explore_stats(entry);
        t.counts.forks += probe.forks;
        t.counts.fork_units_copied += probe.fork_units_copied;
        if probe.steps != steps || probe.paths != paths {
            t.counts.probe_mismatches += 1;
        }
        t.excluded += t0.elapsed();
    }

    /// `recover_batch` on one thread: byte-identical codes are grouped
    /// and recovered once, a panic becomes an `InternalError` on that
    /// contract, and the result fans out to every duplicate.
    pub fn batch(&self, t: &mut Tracer, codes: &[Vec<u8>]) -> Vec<Item> {
        let groups: Vec<Vec<usize>> = t.span(Layer::Batch, || {
            let mut first: HashMap<&[u8], usize> = HashMap::new();
            let mut groups: Vec<Vec<usize>> = Vec::new();
            for (i, code) in codes.iter().enumerate() {
                let g = *first.entry(code.as_slice()).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(i);
            }
            groups
        });
        let mut items: Vec<Option<Item>> = vec![None; codes.len()];
        for members in groups {
            let outcome = catch_unwind(AssertUnwindSafe(|| self.recover(t, &codes[members[0]])));
            let (functions, diagnostics) = match outcome {
                Ok((functions, diagnostics)) => (functions, Arc::new(diagnostics)),
                Err(_) => (
                    Arc::new(Vec::new()),
                    Arc::new(vec![Diagnostic::InternalError {
                        context: "traced recovery panicked".into(),
                    }]),
                ),
            };
            t.span(Layer::Batch, || {
                for &m in &members {
                    items[m] = Some((Arc::clone(&functions), Arc::clone(&diagnostics)));
                }
            });
        }
        items
            .into_iter()
            .map(|i| i.expect("every contract belongs to a group"))
            .collect()
    }
}
