//! The per-batch DCP planner: block generation, hierarchical hypergraph
//! placement, and division scheduling (paper Sec. 4).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use dcp_blocks::{BatchLayout, BlockConfig};
use dcp_hypergraph::{
    partition_warm_with_stats, partition_with_stats, HgArena, Hypergraph, HypergraphBuilder,
    PartitionConfig, PartitionStats, VertexWeight,
};
use dcp_mask::MaskSpec;
use dcp_obs::{Event, ObsHandle, Source as ObsSource};
use dcp_sched::{
    build_plan, verify_plan, ExecutionPlan, PassConfig, PassManager, PassOutcome, Placement,
    ScheduleConfig,
};
use dcp_sim::{simulate_plan, FaultSpec};
use dcp_types::{AttnSpec, ClusterSpec, DcpError, DcpResult, PlanTier};
use serde::{Deserialize, Serialize};

/// Planner hyper-parameters (the paper's defaults from Sec. 7.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Sequence-dimension block size (the paper searches {512, 1024, 2048,
    /// 4096}).
    pub block_size: u32,
    /// Head groups; `None` uses one group per KV head.
    pub head_blocks: Option<u32>,
    /// Number of divisions for computation/communication overlap.
    pub divisions: u32,
    /// Inter-node computation imbalance tolerance (paper: 0.4).
    pub eps_inter: f64,
    /// Intra-node computation imbalance tolerance (paper: 0.1).
    pub eps_intra: f64,
    /// Partitioner seed (plans are deterministic given the seed).
    pub seed: u64,
    /// Hierarchical (machines → devices) placement; `false` partitions
    /// directly over all devices (ablation).
    pub hierarchical: bool,
    /// Enable FM refinement in the partitioner (ablation).
    pub refine: bool,
    /// Fall back to greedy and then static placement when hypergraph
    /// partitioning errors or is ε-infeasible (default `true`). When
    /// `false`, the first failure surfaces as an error (strict mode).
    pub fallback: bool,
    /// Enforce the user ε exactly on the achieved device-level compute
    /// balance — no block-granularity slack. A partition violating it counts
    /// as ε-infeasible and triggers the fallback chain. Default `false`
    /// (the partitioner's caps, which grant one block of slack, decide).
    pub strict_epsilon: bool,
    /// Start the fallback chain at this tier, skipping earlier ones
    /// (ablations, tests, or pinning a degraded mode). `None` starts at
    /// [`PlanTier::Partitioned`].
    pub force_tier: Option<PlanTier>,
    /// Capacity of the signature-keyed plan cache (LRU entries). Long-context
    /// corpora repeat batch shapes constantly, so identical (lengths, masks,
    /// cluster, config) batches reuse the finished plan instead of
    /// re-partitioning. `0` disables caching.
    #[serde(default = "default_plan_cache")]
    pub plan_cache: usize,
    /// Quality gate on the fallback chain: a greedy or static plan whose
    /// simulated makespan exceeds this factor times the partitioned tier's
    /// estimate is rejected ([`DcpError::FallbackRejected`]) instead of
    /// silently shipped. The reference is the partitioned placement that
    /// failed the balance check — degraded, but still the best available
    /// estimate. `force_tier` skips the gate (there is no reference).
    #[serde(default = "default_max_fallback_regression")]
    pub max_fallback_regression: f64,
    /// Known cluster degradations the placement should plan *around*:
    /// straggler devices get proportionally less compute, devices behind
    /// degraded or flapping links get proportionally fewer token blocks.
    /// `None` (the default) places for a healthy cluster.
    #[serde(default)]
    pub fault_spec: Option<FaultSpec>,
    /// Post-scheduling pass pipeline over the rendered instruction streams
    /// (`dcp_sched::passes`). Disabled by default: downstream consumers
    /// that splice streams (the recovery patcher) assume the scheduler's
    /// canonical emission shape. Enable with [`PassConfig::optimize`] when
    /// the plan goes straight to the executor or simulator.
    #[serde(default)]
    pub passes: PassConfig,
    /// Incremental re-planning: warm-start the partitioner from a similar
    /// previous batch's placement instead of re-coarsening from scratch.
    /// Disabled by default (cold planning everywhere).
    #[serde(default)]
    pub incremental: IncrementalConfig,
}

fn default_plan_cache() -> usize {
    64
}

fn default_max_fallback_regression() -> f64 {
    2.0
}

/// Configuration of the incremental (warm-start) planning path.
///
/// On an exact-cache miss, a similarity-keyed *near hit* (same bucketed
/// length histogram, mask multiset, cluster and semantic config) supplies
/// the previous batch's placement as a warm-start seed: blocks are mapped to
/// their old parts by identity, the FM refiner polishes only the delta, and
/// coarsening plus initial partitioning are skipped entirely. The result is
/// accepted only when balanced and within [`Self::max_regression`] of the
/// seeding plan's volume-scaled communication cost — otherwise the planner
/// falls back to cold planning, so the warm path can never ship a bad plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalConfig {
    /// Master switch; `false` (the default) plans every batch cold.
    #[serde(default)]
    pub enabled: bool,
    /// Accept a warm-started placement only while its communication bytes
    /// stay within this factor of the seeding plan's cost, scaled by the
    /// ratio of total hyperedge weight between the two batches (a bigger
    /// batch is allowed proportionally more volume).
    #[serde(default = "default_incremental_regression")]
    pub max_regression: f64,
    /// Capacity of the near-hit seed cache (LRU entries). `0` disables the
    /// near-hit tier even when `enabled` is set.
    #[serde(default = "default_near_cache")]
    pub near_cache: usize,
}

fn default_incremental_regression() -> f64 {
    1.25
}

fn default_near_cache() -> usize {
    8
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            enabled: false,
            max_regression: default_incremental_regression(),
            near_cache: default_near_cache(),
        }
    }
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            block_size: 1024,
            head_blocks: None,
            divisions: 4,
            eps_inter: 0.4,
            eps_intra: 0.1,
            seed: 0xdc9,
            hierarchical: true,
            refine: true,
            fallback: true,
            strict_epsilon: false,
            force_tier: None,
            plan_cache: default_plan_cache(),
            max_fallback_regression: default_max_fallback_regression(),
            fault_spec: None,
            passes: PassConfig::default(),
            incremental: IncrementalConfig::default(),
        }
    }
}

/// The subset of [`PlannerConfig`] that determines plan *content*, borrowed
/// for serialization into cache signatures. Keying on this instead of the
/// full config keeps plan-irrelevant knobs — the cache capacities themselves
/// — from forcing artificial cold misses when toggled.
#[derive(Serialize)]
struct SignatureConfig<'a> {
    block_size: u32,
    head_blocks: Option<u32>,
    divisions: u32,
    eps_inter: f64,
    eps_intra: f64,
    seed: u64,
    hierarchical: bool,
    refine: bool,
    fallback: bool,
    strict_epsilon: bool,
    force_tier: Option<PlanTier>,
    max_fallback_regression: f64,
    fault_spec: &'a Option<FaultSpec>,
    passes: &'a PassConfig,
    /// Warm-started plans may legitimately differ from cold plans (within
    /// the quality bound), so whether the incremental path is live — and how
    /// tight its bound is — is part of the semantic key. Its cache capacity
    /// is not.
    incremental_enabled: bool,
    incremental_max_regression: f64,
}

impl PlannerConfig {
    fn signature_cfg(&self) -> SignatureConfig<'_> {
        SignatureConfig {
            block_size: self.block_size,
            head_blocks: self.head_blocks,
            divisions: self.divisions,
            eps_inter: self.eps_inter,
            eps_intra: self.eps_intra,
            seed: self.seed,
            hierarchical: self.hierarchical,
            refine: self.refine,
            fallback: self.fallback,
            strict_epsilon: self.strict_epsilon,
            force_tier: self.force_tier,
            max_fallback_regression: self.max_fallback_regression,
            fault_spec: &self.fault_spec,
            passes: &self.passes,
            incremental_enabled: self.incremental.enabled,
            incremental_max_regression: self.incremental.max_regression,
        }
    }
}

/// Wall-clock time spent in each planning stage (the paper's Fig. 18).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PlanningTimes {
    /// Block generation seconds.
    pub block_gen: f64,
    /// Hypergraph construction + partitioning seconds.
    pub partition: f64,
    /// Division scheduling + instruction emission seconds.
    pub schedule: f64,
}

impl PlanningTimes {
    /// Total planning seconds.
    pub fn total(&self) -> f64 {
        self.block_gen + self.partition + self.schedule
    }
}

/// Per-call planning performance counters: cache outcome plus a per-stage
/// breakdown of where partitioning time went. Stage times are summed over
/// every sub-partition of the hierarchy (CPU seconds, not wall-clock, when
/// sub-problems run in parallel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Whether this output was served from the plan cache. On a hit the
    /// stage times below are zero and `total_s` is the lookup time.
    pub cache_hit: bool,
    /// Whether this plan was produced by the incremental path: a near-hit
    /// seed warm-started the partitioner and the result passed the quality
    /// bound. Exact cache hits and cold plans leave this `false`.
    #[serde(default)]
    pub near_hit: bool,
    /// Partitioner coarsening seconds (including V-cycle re-coarsening).
    pub coarsen_s: f64,
    /// Initial-partitioning seconds at the coarsest levels.
    pub initial_s: f64,
    /// FM refinement and balance-repair seconds.
    pub refine_s: f64,
    /// Division scheduling + instruction emission seconds.
    pub schedule_s: f64,
    /// End-to-end seconds for this `plan()` call.
    pub total_s: f64,
}

/// Everything the planner produces for one batch. Serializable so planned
/// batches survive a dataloader snapshot/restore cycle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanOutput {
    /// The block decomposition.
    pub layout: BatchLayout,
    /// The device placement chosen by hypergraph partitioning.
    pub placement: Placement,
    /// The scheduled instruction streams.
    pub plan: ExecutionPlan,
    /// Stage timings.
    pub times: PlanningTimes,
    /// Which tier of the fallback chain produced this plan.
    pub tier: PlanTier,
    /// Why earlier tiers were skipped, when `tier` is not
    /// [`PlanTier::Partitioned`] (one entry per skipped tier).
    pub fallback_reason: Option<String>,
    /// Cache outcome and per-stage timing for this call.
    pub stats: PlanStats,
    /// What each optimizer pass changed, in pipeline order (empty when the
    /// pipeline is disabled). Deserializes as empty from plans serialized
    /// before the pipeline existed.
    #[serde(default)]
    pub passes: Vec<PassOutcome>,
}

impl PlanOutput {
    /// Number of devices the plan targets.
    pub fn num_devices(&self) -> u32 {
        self.plan.num_devices
    }
}

/// A warm-start seed retained from a previously planned batch: the part of
/// every block, keyed by block identity so surviving blocks of a similar
/// batch map back to their old parts, plus the cost context the quality
/// bound scales against.
#[derive(Debug, Clone)]
struct NearEntry {
    /// Device count the seeding placement targeted.
    num_devices: u32,
    /// Token-block part by `(seq, head_block, start)`.
    token_parts: HashMap<(u32, u32, u32, u32), u32>,
    /// Comp-block part by `(seq, head_block, q_start, kv_start)`.
    comp_parts: HashMap<(u32, u32, u32, u32), u32>,
    /// Forward communication bytes of the seeding plan (pre-pass), i.e. its
    /// connectivity−1 cost.
    cost: u64,
    /// Total multi-pin hyperedge weight of the seeding batch, used to scale
    /// `cost` to the new batch's volume.
    edge_total: u64,
    /// The seeding plan itself (post-pass, verified). When a layout is
    /// block-identical to the seeding batch the schedule is a deterministic
    /// replay, so the stored plan is returned directly instead of being
    /// rebuilt — this is what makes the identical-re-plan path
    /// sub-millisecond.
    plan: ExecutionPlan,
}

/// LRU cache of finished plans keyed by the canonical batch signature,
/// plus the similarity-keyed near-hit tier of warm-start seeds.
/// Shared (behind `Arc<Mutex<_>>`) across clones of a [`Planner`], so
/// dataloader workers planning on separate threads reuse each other's work.
#[derive(Debug, Default)]
struct PlanCache {
    /// Monotonic access counter used as the recency stamp.
    stamp: u64,
    hits: u64,
    misses: u64,
    entries: HashMap<String, (u64, PlanOutput)>,
    near_hits: u64,
    near_misses: u64,
    near: HashMap<String, (u64, NearEntry)>,
}

impl PlanCache {
    fn get(&mut self, key: &str) -> Option<PlanOutput> {
        self.stamp += 1;
        match self.entries.get_mut(key) {
            Some((t, out)) => {
                *t = self.stamp;
                self.hits += 1;
                Some(out.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, cap: usize, key: String, out: PlanOutput) {
        if cap == 0 {
            return;
        }
        self.stamp += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= cap {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                self.entries.remove(&k);
            }
        }
        self.entries.insert(key, (self.stamp, out));
    }

    fn near_get(&mut self, key: &str) -> Option<NearEntry> {
        self.stamp += 1;
        match self.near.get_mut(key) {
            Some((t, e)) => {
                *t = self.stamp;
                self.near_hits += 1;
                Some(e.clone())
            }
            None => {
                self.near_misses += 1;
                None
            }
        }
    }

    fn near_insert(&mut self, cap: usize, key: String, entry: NearEntry) {
        if cap == 0 {
            return;
        }
        self.stamp += 1;
        if !self.near.contains_key(&key) && self.near.len() >= cap {
            let victim = self
                .near
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                self.near.remove(&k);
            }
        }
        self.near.insert(key, (self.stamp, entry));
    }
}

/// The DCP planner, bound to a cluster and an attention operator shape.
#[derive(Debug, Clone)]
pub struct Planner {
    cluster: ClusterSpec,
    attn: AttnSpec,
    cfg: PlannerConfig,
    cache: Arc<Mutex<PlanCache>>,
    /// Reusable hypergraph build buffers (shared across clones; a worker
    /// that cannot take the lock immediately builds with fresh buffers).
    arena: Arc<Mutex<HgArena>>,
    obs: ObsHandle,
}

impl Planner {
    /// Creates a planner for `cluster` and `attn` under `cfg`.
    pub fn new(cluster: ClusterSpec, attn: AttnSpec, cfg: PlannerConfig) -> Self {
        Planner {
            cluster,
            attn,
            cfg,
            cache: Arc::new(Mutex::new(PlanCache::default())),
            arena: Arc::new(Mutex::new(HgArena::default())),
            obs: ObsHandle::noop(),
        }
    }

    /// Locks the shared plan cache, recovering from a poisoned mutex: a plan
    /// that panicked while holding the lock (the dataloader catches such
    /// panics and retries) must not brick every subsequent `plan()` on all
    /// clones. The cache contents may be mid-mutation at poison time, so
    /// recovery clears them — losing cached plans, never correctness. The
    /// poison flag is cleared too, so recovery happens once, not on every
    /// subsequent lock.
    fn lock_cache(&self) -> MutexGuard<'_, PlanCache> {
        self.cache.lock().unwrap_or_else(|poison| {
            self.cache.clear_poison();
            let mut g = poison.into_inner();
            *g = PlanCache::default();
            g
        })
    }

    /// Attaches an observability sink: every subsequent `plan()` call emits
    /// stage spans (block_gen / place / schedule plus the partitioner's
    /// coarsen / initial / refine breakdown), cache hit/miss counters and
    /// fallback-tier transition events. All emission happens on the calling
    /// thread, in plan order, so the stream is deterministic.
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Lifetime cache hit / miss counts of this planner (shared across
    /// clones). A degenerate batch rejected before lookup counts as neither.
    pub fn cache_stats(&self) -> (u64, u64) {
        let c = self.lock_cache();
        (c.hits, c.misses)
    }

    /// Lifetime near-hit-tier hit / miss counts (shared across clones).
    /// Counts lookups only — a near hit whose warm plan fails the quality
    /// bound still counts as a hit here (the seed was found and tried).
    pub fn near_cache_stats(&self) -> (u64, u64) {
        let c = self.lock_cache();
        (c.near_hits, c.near_misses)
    }

    /// The canonical batch signature: the *ordered* `(length, mask)` list
    /// plus the cluster shape and the semantic config subset
    /// ([`SignatureConfig`]), serialized to JSON. Order matters — block and
    /// vertex numbering follow batch order, so permuted batches legitimately
    /// produce different plans.
    fn signature(&self, seqs: &[(u32, MaskSpec)]) -> String {
        serde_json::to_string(&(seqs, &self.cluster, &self.cfg.signature_cfg()))
            .expect("planner signature serialization cannot fail")
    }

    /// The similarity key of the near-hit tier: the *bucketed* batch shape —
    /// per-sequence block counts as a sorted histogram plus the multiset of
    /// masks — with the cluster and semantic config. Batches with the same
    /// block-count histogram and mask mix share a key even when raw lengths
    /// differ within a block, which is exactly when the previous placement
    /// transfers well as a warm-start seed.
    fn near_signature(&self, seqs: &[(u32, MaskSpec)]) -> String {
        let bs = self.cfg.block_size.max(1);
        let mut lens: Vec<u32> = seqs.iter().map(|(len, _)| len.div_ceil(bs)).collect();
        lens.sort_unstable();
        let mut masks: Vec<String> = seqs
            .iter()
            .map(|(_, m)| serde_json::to_string(m).expect("mask serialization cannot fail"))
            .collect();
        masks.sort_unstable();
        serde_json::to_string(&(lens, masks, &self.cluster, &self.cfg.signature_cfg()))
            .expect("planner near-signature serialization cannot fail")
    }

    /// The planner's configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// The cluster this planner targets.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Plans one batch: generates blocks, places them, schedules divisions.
    ///
    /// Placement walks the fallback chain (paper planner → greedy LPT →
    /// static zigzag) when `cfg.fallback` is on: a partitioner error or an
    /// ε-infeasible partition degrades the tier instead of failing the
    /// batch, and the tier that produced the plan is recorded in
    /// [`PlanOutput::tier`].
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::InvalidArgument`] for degenerate inputs (empty
    /// batch, zero devices, `divisions == 0`); otherwise propagates layout
    /// failures, and placement/scheduling failures only once every enabled
    /// tier has been exhausted.
    pub fn plan(&self, seqs: &[(u32, MaskSpec)]) -> DcpResult<PlanOutput> {
        self.plan_for_iter(seqs, None)
    }

    /// [`Planner::plan`] with an explicit iteration/batch index stamped onto
    /// every emitted observability event (the planner itself has no notion
    /// of iterations; callers that do — the dataloader, the trace harness —
    /// pass it here so planner spans correlate with executor/sim spans).
    pub fn plan_for_iter(
        &self,
        seqs: &[(u32, MaskSpec)],
        iter: Option<u64>,
    ) -> DcpResult<PlanOutput> {
        if seqs.is_empty() {
            return Err(DcpError::invalid_argument("empty batch"));
        }
        self.cluster.validate()?;
        let n = self.cluster.num_devices();
        if self.cfg.divisions == 0 {
            return Err(DcpError::invalid_argument("divisions must be > 0"));
        }
        let t_total = Instant::now();
        // Observability events carry the batch index when known; all
        // emission below is on the calling thread, in plan order.
        let obs_on = self.obs.enabled();
        let stamp = |e: Event| match iter {
            Some(i) => e.with_iter(i),
            None => e,
        };
        let key = if self.cfg.plan_cache > 0 {
            let key = self.signature(seqs);
            if let Some(mut out) = self.lock_cache().get(&key) {
                out.stats = PlanStats {
                    cache_hit: true,
                    total_s: t_total.elapsed().as_secs_f64(),
                    ..PlanStats::default()
                };
                if obs_on {
                    self.obs.record(stamp(
                        Event::counter(ObsSource::Planner, "plan_cache_hit", 1.0)
                            .with_label(out.tier.label()),
                    ));
                }
                return Ok(out);
            }
            if obs_on {
                self.obs.record(stamp(Event::counter(
                    ObsSource::Planner,
                    "plan_cache_miss",
                    1.0,
                )));
            }
            Some(key)
        } else {
            None
        };
        // Near-hit tier: on an exact miss, a batch with the same bucketed
        // shape may have left a placement to warm-start from. The lookup is
        // independent of the exact cache so incremental planning works even
        // with exact caching disabled.
        let incremental_on = self.cfg.incremental.enabled && self.cfg.incremental.near_cache > 0;
        let near_key = incremental_on.then(|| self.near_signature(seqs));
        let near_entry = near_key
            .as_ref()
            .and_then(|k| self.lock_cache().near_get(k));
        let t0 = Instant::now();
        let head_blocks = self.cfg.head_blocks.unwrap_or(self.attn.kv_heads);
        let layout = BatchLayout::build(
            self.attn,
            BlockConfig {
                block_size: self.cfg.block_size,
                head_blocks,
            },
            seqs,
        )?;
        let block_gen = t0.elapsed().as_secs_f64();
        if obs_on {
            self.obs.record(stamp(
                Event::span(ObsSource::Planner, "block_gen")
                    .with_time((t0 - t_total).as_secs_f64(), block_gen),
            ));
        }

        let start = self.cfg.force_tier.unwrap_or(PlanTier::Partitioned);
        let mut partition_s = 0.0;
        let mut schedule_s = 0.0;
        let mut pstats = PartitionStats::default();
        let mut reasons: Vec<String> = Vec::new();
        let mut last_err: Option<DcpError> = None;
        let mut chosen: Option<(Placement, ExecutionPlan, PlanTier)> = None;
        // The partitioned placement that failed the balance check, kept as
        // the makespan reference the fallback quality gate compares against.
        let mut reference: Option<Placement> = None;
        // Incremental path: warm-start from a near-hit seed. Pinned tiers
        // and fault-aware placements always plan cold (a forced tier is an
        // explicit user decision; fault targets change the caps the seed was
        // balanced under).
        let mut near_hit = false;
        if let Some(entry) = near_entry.filter(|e| {
            self.cfg.force_tier.is_none() && e.num_devices == n && self.fault_weights(n).is_none()
        }) {
            let t_seed = Instant::now();
            let (seed, exact) = Self::warm_seed(&layout, &entry);
            let exact = exact && entry.edge_total == Self::total_edge_weight(&layout);
            let seed_dt = t_seed.elapsed().as_secs_f64();
            if obs_on {
                self.obs.record(stamp(
                    Event::span(ObsSource::Planner, "warm_seed")
                        .with_time((t_seed - t_total).as_secs_f64(), seed_dt),
                ));
            }
            // Block-identical layout: the seed IS the seeding placement,
            // and the retained plan is exactly what the pipeline would
            // rebuild for it (layout, placement and config all identical) —
            // so partitioning, scheduling and the pass pipeline are all
            // skipped and the stored plan is replayed through the verifier.
            // Re-planning an unchanged batch reproduces the prior plan bit
            // for bit at near-lookup cost. Anything else goes through
            // warm-started delta refinement.
            if exact {
                let nt = layout.token_blocks.len();
                let placement = Placement {
                    num_devices: n,
                    token_to_dev: seed[..nt].to_vec(),
                    comp_to_dev: seed[nt..].to_vec(),
                };
                let plan = entry.plan.clone();
                if verify_plan(&layout, &placement, &plan).is_ok() {
                    if obs_on {
                        self.obs
                            .record(stamp(Event::counter(ObsSource::Planner, "near_hit", 1.0)));
                    }
                    let out = PlanOutput {
                        layout,
                        placement,
                        plan,
                        times: PlanningTimes {
                            block_gen,
                            partition: seed_dt,
                            schedule: 0.0,
                        },
                        tier: PlanTier::Partitioned,
                        fallback_reason: None,
                        stats: PlanStats {
                            cache_hit: false,
                            near_hit: true,
                            total_s: t_total.elapsed().as_secs_f64(),
                            ..PlanStats::default()
                        },
                        passes: Vec::new(),
                    };
                    if let Some(key) = key {
                        self.lock_cache()
                            .insert(self.cfg.plan_cache, key, out.clone());
                    }
                    return Ok(out);
                }
                // A stored plan that no longer verifies (e.g. a poisoned
                // entry) falls through to warm delta refinement.
            }
            let t_warm = Instant::now();
            let warm = self.place_warm(&layout, &seed);
            let warm_dt = t_warm.elapsed().as_secs_f64();
            partition_s += seed_dt + warm_dt;
            if obs_on {
                self.obs.record(stamp(
                    Event::span(ObsSource::Planner, "delta_refine")
                        .with_time((t_warm - t_total).as_secs_f64(), warm_dt),
                ));
            }
            if let Ok((placement, balanced, wstats, cost)) = warm {
                // Quality bound: comm bytes within the configured factor of
                // the seeding plan's cost, scaled to this batch's hyperedge
                // volume. A zero-cost seed must stay zero-cost.
                let edge_total = Self::total_edge_weight(&layout);
                let scaled =
                    entry.cost as f64 * (edge_total as f64 / entry.edge_total.max(1) as f64);
                let within = if entry.cost == 0 {
                    cost == 0
                } else {
                    cost as f64 <= self.cfg.incremental.max_regression * scaled
                };
                if balanced && within {
                    let ts = Instant::now();
                    let built = build_plan(
                        &layout,
                        &placement,
                        &ScheduleConfig {
                            divisions: self.cfg.divisions,
                            ..Default::default()
                        },
                    );
                    let sched_dt = ts.elapsed().as_secs_f64();
                    schedule_s += sched_dt;
                    if obs_on {
                        self.obs.record(stamp(
                            Event::span(ObsSource::Planner, "schedule")
                                .with_label("warm")
                                .with_time((ts - t_total).as_secs_f64(), sched_dt),
                        ));
                    }
                    if let Ok(plan) = built {
                        pstats.merge(&wstats);
                        chosen = Some((placement, plan, PlanTier::Partitioned));
                        near_hit = true;
                        if obs_on {
                            self.obs.record(stamp(Event::counter(
                                ObsSource::Planner,
                                "near_hit",
                                1.0,
                            )));
                        }
                    }
                }
            }
            if !near_hit && obs_on {
                self.obs.record(stamp(
                    Event::instant(ObsSource::Planner, "warm_fallback")
                        .with_time(t_total.elapsed().as_secs_f64(), 0.0),
                ));
            }
        }
        for tier in PlanTier::all() {
            if chosen.is_some() {
                break;
            }
            if tier < start {
                continue;
            }
            let tp = Instant::now();
            let placed = self.placement_for_tier(&layout, tier, n, &mut pstats, &mut reference);
            let place_dt = tp.elapsed().as_secs_f64();
            partition_s += place_dt;
            if obs_on {
                self.obs.record(stamp(
                    Event::span(ObsSource::Planner, "place")
                        .with_label(tier.label())
                        .with_time((tp - t_total).as_secs_f64(), place_dt),
                ));
            }
            let placement = match placed {
                Ok(p) => p,
                Err(e) => {
                    if obs_on {
                        self.obs.record(stamp(
                            Event::instant(ObsSource::Planner, "tier_fallback")
                                .with_label(tier.label())
                                .with_time((t_total.elapsed()).as_secs_f64(), 0.0),
                        ));
                    }
                    reasons.push(format!("{}: {e}", tier.label()));
                    last_err = Some(e);
                    if !self.cfg.fallback {
                        break;
                    }
                    continue;
                }
            };
            let ts = Instant::now();
            let built = build_plan(
                &layout,
                &placement,
                &ScheduleConfig {
                    divisions: self.cfg.divisions,
                    ..Default::default()
                },
            );
            let sched_dt = ts.elapsed().as_secs_f64();
            schedule_s += sched_dt;
            if obs_on {
                self.obs.record(stamp(
                    Event::span(ObsSource::Planner, "schedule")
                        .with_label(tier.label())
                        .with_time((ts - t_total).as_secs_f64(), sched_dt),
                ));
            }
            match built {
                Ok(plan) => {
                    // Fallback quality gate: a degraded-tier plan must not
                    // regress the simulated makespan past the configured
                    // factor of what the (unbalanced) partitioned placement
                    // would have achieved. `force_tier` has no reference to
                    // compare against and is exempt.
                    if tier != PlanTier::Partitioned && self.cfg.force_tier.is_none() {
                        if let Some(factor) = reference
                            .as_ref()
                            .and_then(|r| self.fallback_regression(&layout, r, &plan))
                        {
                            if factor > self.cfg.max_fallback_regression {
                                let e = DcpError::fallback_rejected(
                                    tier,
                                    factor,
                                    self.cfg.max_fallback_regression,
                                );
                                if obs_on {
                                    self.obs.record(stamp(
                                        Event::instant(ObsSource::Planner, "fallback_rejected")
                                            .with_label(tier.label())
                                            .with_time(t_total.elapsed().as_secs_f64(), 0.0),
                                    ));
                                }
                                reasons.push(format!("{}: {e}", tier.label()));
                                last_err = Some(e);
                                if !self.cfg.fallback {
                                    break;
                                }
                                continue;
                            }
                        }
                    }
                    chosen = Some((placement, plan, tier));
                    break;
                }
                Err(e) => {
                    if obs_on {
                        self.obs.record(stamp(
                            Event::instant(ObsSource::Planner, "tier_fallback")
                                .with_label(tier.label())
                                .with_time((t_total.elapsed()).as_secs_f64(), 0.0),
                        ));
                    }
                    reasons.push(format!("{}: {e}", tier.label()));
                    last_err = Some(e);
                    if !self.cfg.fallback {
                        break;
                    }
                }
            }
        }

        let Some((placement, mut plan, tier)) = chosen else {
            return Err(last_err
                .unwrap_or_else(|| DcpError::invalid_plan("no fallback tier produced a plan")));
        };
        // Forward comm bytes before any pass rewrites them: this equals the
        // hypergraph connectivity cost and is what future warm starts scale
        // their quality bound against.
        let pre_pass_fwd_comm = plan.fwd.total_comm_bytes();
        // Optimizer pass pipeline (when enabled), then the stream verifier on
        // every freshly produced plan — optimized or not. Cache hits skip
        // both: the cached plan already passed.
        let mut pass_outcomes: Vec<PassOutcome> = Vec::new();
        if self.cfg.passes.enabled {
            let tp = Instant::now();
            let pm = PassManager::new(self.cfg.passes.clone());
            pass_outcomes = pm.run_plan(&layout, &placement, &mut plan);
            schedule_s += tp.elapsed().as_secs_f64();
            if obs_on {
                let mut at = (tp - t_total).as_secs_f64();
                let per_pass = tp.elapsed().as_secs_f64() / pass_outcomes.len().max(1) as f64;
                for o in &pass_outcomes {
                    self.obs.record(stamp(
                        Event::span(ObsSource::Planner, "pass")
                            .with_label(format!("{}:{}", o.pass, o.phase))
                            .with_time(at, per_pass),
                    ));
                    at += per_pass;
                }
                let saved: u64 = pass_outcomes
                    .iter()
                    .map(PassOutcome::comm_bytes_saved)
                    .sum();
                self.obs.record(stamp(Event::counter(
                    ObsSource::Planner,
                    "pass_comm_bytes_saved",
                    saved as f64,
                )));
            }
        }
        if let Err(diag) = verify_plan(&layout, &placement, &plan) {
            if obs_on {
                // Flight-recorder trigger: a postmortem bundle captures the
                // events leading up to the illegal stream.
                let mut ev = Event::instant(ObsSource::Planner, "verify_diagnostic")
                    .with_label(diag.to_string());
                if let Some(d) = diag.device {
                    ev = ev.with_device(d);
                }
                self.obs.record(stamp(ev));
            }
            return Err(DcpError::invalid_plan(format!(
                "planner produced an illegal stream ({} tier): {diag}",
                tier.label()
            )));
        }
        if obs_on {
            // Partitioner stage breakdown (CPU seconds summed over the
            // hierarchy, rendered as consecutive segments of one row).
            let mut at = block_gen;
            for (name, dur) in [
                ("coarsen", pstats.coarsen_s),
                ("initial", pstats.initial_s),
                ("refine", pstats.refine_s),
            ] {
                self.obs.record(stamp(
                    Event::span(ObsSource::Planner, name)
                        .with_label(tier.label())
                        .with_time(at, dur),
                ));
                at += dur;
            }
        }
        let out = PlanOutput {
            layout,
            placement,
            plan,
            times: PlanningTimes {
                block_gen,
                partition: partition_s,
                schedule: schedule_s,
            },
            tier,
            fallback_reason: if reasons.is_empty() {
                None
            } else {
                Some(reasons.join("; "))
            },
            stats: PlanStats {
                cache_hit: false,
                near_hit,
                coarsen_s: pstats.coarsen_s,
                initial_s: pstats.initial_s,
                refine_s: pstats.refine_s,
                schedule_s,
                total_s: t_total.elapsed().as_secs_f64(),
            },
            passes: pass_outcomes,
        };
        // Retain this placement as a warm-start seed for similar future
        // batches (warm-accepted plans included, so the seed chain follows
        // distribution drift). Only the partitioned tier seeds: greedy and
        // static placements are not worth warm-starting from.
        if let Some(near_key) = near_key {
            if out.tier == PlanTier::Partitioned {
                let entry =
                    Self::near_entry_of(&out.layout, &out.placement, &out.plan, pre_pass_fwd_comm);
                self.lock_cache()
                    .near_insert(self.cfg.incremental.near_cache, near_key, entry);
            }
        }
        if let Some(key) = key {
            self.lock_cache()
                .insert(self.cfg.plan_cache, key, out.clone());
        }
        Ok(out)
    }

    /// Computes the placement for one tier of the fallback chain,
    /// accumulating partitioner stage timings into `pstats` (the greedy and
    /// static tiers do not partition and leave it untouched).
    fn placement_for_tier(
        &self,
        layout: &BatchLayout,
        tier: PlanTier,
        n: u32,
        pstats: &mut PartitionStats,
        reference: &mut Option<Placement>,
    ) -> DcpResult<Placement> {
        match tier {
            PlanTier::Partitioned => {
                let (placement, balanced, stats) = self.place(layout)?;
                pstats.merge(&stats);
                if !balanced {
                    *reference = Some(placement);
                    return Err(DcpError::Infeasible(
                        "partition exceeded the balance caps (ε-infeasible)".into(),
                    ));
                }
                if self.cfg.strict_epsilon {
                    let loads = placement.comp_loads(layout);
                    let total: u64 = loads.iter().sum();
                    let avg = total as f64 / loads.len().max(1) as f64;
                    let max = loads.iter().copied().max().unwrap_or(0) as f64;
                    if max > (1.0 + self.cfg.eps_intra) * avg {
                        *reference = Some(placement);
                        return Err(DcpError::Infeasible(format!(
                            "strict ε violated: max load {max:.0} > (1 + {}) * avg {avg:.0}",
                            self.cfg.eps_intra
                        )));
                    }
                }
                Ok(placement)
            }
            PlanTier::Greedy => Placement::greedy(layout, n),
            PlanTier::Static => dcp_baselines::static_placement(layout, n, true),
        }
    }

    /// Makespan ratio of a fallback candidate to the partitioned reference
    /// placement, both simulated on the planner's cluster. `None` (gate
    /// skipped) when the reference cannot be scheduled or either simulation
    /// fails — the gate only ever vetoes with positive evidence.
    fn fallback_regression(
        &self,
        layout: &BatchLayout,
        reference: &Placement,
        candidate: &ExecutionPlan,
    ) -> Option<f64> {
        let sched = ScheduleConfig {
            divisions: self.cfg.divisions,
            ..Default::default()
        };
        let ref_plan = build_plan(layout, reference, &sched).ok()?;
        let ref_t = simulate_plan(&self.cluster, &ref_plan).ok()?.total();
        let cand_t = simulate_plan(&self.cluster, candidate).ok()?.total();
        if !ref_t.is_finite() || ref_t <= 0.0 || !cand_t.is_finite() {
            return None;
        }
        Some(cand_t / ref_t)
    }

    /// Builds the placement hypergraph of `layout`: one vertex per token
    /// block (weight `[0, bytes]`) and per computation block (weight
    /// `[flops, 0]`); per token block one hyperedge for Q+O (weight
    /// `q_bytes + o_bytes` — identical pin sets, so they are merged) and one
    /// for KV (weight `kv_bytes`), each connecting the token vertex to the
    /// consuming computation blocks.
    pub fn build_hypergraph(layout: &BatchLayout) -> Hypergraph {
        let nt = layout.token_blocks.len();
        let nc = layout.comp_blocks.len();
        Self::fill_builder(HypergraphBuilder::new(nt + nc), layout)
    }

    /// [`Planner::build_hypergraph`] routed through the planner's reusable
    /// arena buffers, avoiding the per-batch allocation churn of a fresh
    /// build. Pair with [`Planner::recycle_hg`] when done with the graph.
    fn build_hypergraph_in(&self, layout: &BatchLayout) -> Hypergraph {
        let b = {
            let mut arena = self.arena.lock().unwrap_or_else(|p| p.into_inner());
            arena.builder(layout.token_blocks.len() + layout.comp_blocks.len())
        };
        Self::fill_builder(b, layout)
    }

    /// Returns a hypergraph's buffers to the shared arena for the next build.
    fn recycle_hg(&self, hg: Hypergraph) {
        self.arena
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .recycle(hg);
    }

    fn fill_builder(mut b: HypergraphBuilder, layout: &BatchLayout) -> Hypergraph {
        let nt = layout.token_blocks.len();
        for (i, tb) in layout.token_blocks.iter().enumerate() {
            b.set_vertex_weight(i, [0, tb.total_bytes()]);
        }
        for (i, cb) in layout.comp_blocks.iter().enumerate() {
            b.set_vertex_weight(nt + i, [cb.flops, 0]);
        }
        let mut pins: Vec<u32> = Vec::new();
        for (i, tb) in layout.token_blocks.iter().enumerate() {
            // Q + O edge.
            pins.clear();
            pins.push(i as u32);
            pins.extend(layout.q_consumers[i].iter().map(|c| nt as u32 + c.0));
            if pins.len() > 1 {
                b.add_edge(tb.q_bytes + tb.o_bytes, &pins);
            }
            // KV edge.
            pins.clear();
            pins.push(i as u32);
            pins.extend(layout.kv_consumers[i].iter().map(|c| nt as u32 + c.0));
            if pins.len() > 1 {
                b.add_edge(tb.kv_bytes, &pins);
            }
        }
        b.build().expect("pins are in range by construction")
    }

    /// Total multi-pin hyperedge weight of `layout`'s placement hypergraph
    /// (single-pin edges never cost and are skipped, mirroring
    /// [`Planner::build_hypergraph`]). Used to scale a warm-start seed's
    /// cost bound to the new batch's volume without building the graph.
    fn total_edge_weight(layout: &BatchLayout) -> u64 {
        let mut t = 0u64;
        for (i, tb) in layout.token_blocks.iter().enumerate() {
            if !layout.q_consumers[i].is_empty() {
                t += tb.q_bytes + tb.o_bytes;
            }
            if !layout.kv_consumers[i].is_empty() {
                t += tb.kv_bytes;
            }
        }
        t
    }

    /// Maps `layout`'s blocks onto the seeding placement's parts by block
    /// identity — token blocks by `(seq, head_block, start, len)`, comp
    /// blocks by `(seq, head_block, q_start, kv_start)`. Unmatched token
    /// blocks inherit the last matched part in block order (deterministic
    /// carry-forward keeps new blocks near their sequence neighbors);
    /// unmatched comp blocks colocate with their Q block. The returned flag
    /// is `true` when the mapping is a perfect bijection — every block
    /// matched and the entry has no leftover blocks — i.e. the blocked
    /// layouts are identical.
    fn warm_seed(layout: &BatchLayout, entry: &NearEntry) -> (Vec<u32>, bool) {
        let nt = layout.token_blocks.len();
        let mut seed = vec![0u32; nt + layout.comp_blocks.len()];
        let mut exact =
            nt == entry.token_parts.len() && layout.comp_blocks.len() == entry.comp_parts.len();
        let mut last = 0u32;
        for (i, tb) in layout.token_blocks.iter().enumerate() {
            match entry
                .token_parts
                .get(&(tb.seq, tb.head_block, tb.start, tb.len))
            {
                Some(&p) => last = p,
                None => exact = false,
            }
            seed[i] = last;
        }
        for (i, cb) in layout.comp_blocks.iter().enumerate() {
            let q = &layout.token_blocks[cb.q_block.0 as usize];
            let kv = &layout.token_blocks[cb.kv_block.0 as usize];
            match entry
                .comp_parts
                .get(&(cb.seq, cb.head_block, q.start, kv.start))
            {
                Some(&p) => seed[nt + i] = p,
                None => {
                    exact = false;
                    seed[nt + i] = seed[cb.q_block.0 as usize];
                }
            }
        }
        (seed, exact)
    }

    /// The warm-start seed entry describing a finished plan.
    fn near_entry_of(
        layout: &BatchLayout,
        placement: &Placement,
        plan: &ExecutionPlan,
        cost: u64,
    ) -> NearEntry {
        let token_parts = layout
            .token_blocks
            .iter()
            .zip(&placement.token_to_dev)
            .map(|(tb, &d)| ((tb.seq, tb.head_block, tb.start, tb.len), d))
            .collect();
        let comp_parts = layout
            .comp_blocks
            .iter()
            .zip(&placement.comp_to_dev)
            .map(|(cb, &d)| {
                let q = &layout.token_blocks[cb.q_block.0 as usize];
                let kv = &layout.token_blocks[cb.kv_block.0 as usize];
                ((cb.seq, cb.head_block, q.start, kv.start), d)
            })
            .collect();
        NearEntry {
            num_devices: placement.num_devices,
            token_parts,
            comp_parts,
            cost,
            edge_total: Self::total_edge_weight(layout),
            plan: plan.clone(),
        }
    }

    /// Per-device capacity weights derived from `cfg.fault_spec` (see
    /// [`FaultSpec::capacity_weights`]); `None` when no spec is set or it
    /// changes nothing.
    fn fault_weights(&self, n: u32) -> Option<Vec<[f64; 2]>> {
        self.cfg.fault_spec.as_ref()?.capacity_weights(n as usize)
    }

    /// Splits `totals` across parts proportionally to `weights` (per
    /// dimension, floored at 1 so downstream caps stay positive).
    fn targets_from_weights(totals: VertexWeight, weights: &[[f64; 2]]) -> Vec<VertexWeight> {
        let mut t = vec![[0u64; 2]; weights.len()];
        for dim in 0..2 {
            let sum: f64 = weights.iter().map(|w| w[dim]).sum();
            for (ti, w) in t.iter_mut().zip(weights) {
                ti[dim] = ((totals[dim] as f64 * w[dim] / sum).round() as u64).max(1);
            }
        }
        t
    }

    /// Warm-started placement: refines `seed` (a full vertex → device
    /// assignment) through the same hierarchy as [`Planner::place`] —
    /// machine level first, then the per-machine device level on induced
    /// subgraphs — but skipping coarsening and initial partitioning at every
    /// level. Returns the placement, whether every level met its balance
    /// caps, the merged stage stats, and the connectivity cost (== forward
    /// comm bytes, pinned by `hypergraph_cost_matches_plan_forward_comm`).
    fn place_warm(
        &self,
        layout: &BatchLayout,
        seed: &[u32],
    ) -> DcpResult<(Placement, bool, PartitionStats, u64)> {
        let hg = self.build_hypergraph_in(layout);
        let nt = layout.token_blocks.len();
        let n = self.cluster.num_devices();
        let levels = self.placement_levels();
        let result = self.place_warm_levels(&hg, &levels, self.cfg.seed, seed);
        let (assignment, balanced, stats) = match result {
            Ok(v) => v,
            Err(e) => {
                self.recycle_hg(hg);
                return Err(e);
            }
        };
        let cost = hg.connectivity_cost(&assignment, n);
        self.recycle_hg(hg);
        Ok((
            Placement {
                num_devices: n,
                token_to_dev: assignment[..nt].to_vec(),
                comp_to_dev: assignment[nt..].to_vec(),
            },
            balanced,
            stats,
            cost,
        ))
    }

    /// The partition hierarchy as `(parts, epsilon)` refinement levels,
    /// outermost first, mirroring the cluster's fabric tiers
    /// ([`ClusterSpec::hierarchy`]): spine groups, then leaves, then nodes,
    /// then devices — the flat model yields the classic machine/device
    /// split. The device level uses `eps_intra`, every switch level
    /// `eps_inter`; degenerate one-way levels are dropped. A non-hierarchical
    /// config collapses to a single flat level over all devices.
    fn placement_levels(&self) -> Vec<(u32, f64)> {
        let n = self.cluster.num_devices();
        if !self.cfg.hierarchical {
            return vec![(n, self.cfg.eps_intra)];
        }
        let h = self.cluster.hierarchy();
        let mut levels: Vec<(u32, f64)> = Vec::new();
        for (i, &k) in h.iter().enumerate() {
            if k == 1 {
                continue;
            }
            let eps = if i + 1 == h.len() {
                self.cfg.eps_intra
            } else {
                self.cfg.eps_inter
            };
            levels.push((k, eps));
        }
        if levels.is_empty() {
            levels.push((1, self.cfg.eps_intra));
        }
        levels
    }

    /// Warm-started placement through the level hierarchy: at each level the
    /// seeded assignment (divided down to that level's granularity) is
    /// refined without coarsening or initial partitioning, then each part
    /// recurses on its induced subgraph — the same subgraphs, epsilons and
    /// per-part seeds as the cold [`Planner::place_levels`], so a converged
    /// seed reproduces the cold placement exactly.
    fn place_warm_levels(
        &self,
        hg: &Hypergraph,
        levels: &[(u32, f64)],
        seed: u64,
        dev_seed: &[u32],
    ) -> DcpResult<(Vec<u32>, bool, PartitionStats)> {
        type LocalPartition = (Vec<u32>, Vec<u32>, bool, PartitionStats);
        let (parts, eps) = levels[0];
        let stride: u32 = levels[1..].iter().map(|l| l.0).product();
        let mut pc = PartitionConfig::new(parts)
            .with_epsilon(eps)
            .with_seed(seed);
        pc.refine_enabled = self.cfg.refine;
        if levels.len() == 1 {
            let (part, s) = partition_warm_with_stats(hg, &pc, dev_seed)?;
            return Ok((part.assignment, part.balanced, s));
        }
        // Warm-refine this level's assignment implied by the seeded devices
        // (part = device / stride).
        let level_seed: Vec<u32> = dev_seed.iter().map(|&d| d / stride).collect();
        let (part, s1) = partition_warm_with_stats(hg, &pc, &level_seed)?;
        let mut stats = s1;
        let mut balanced = part.balanced;
        use rayon::prelude::*;
        let locals: Vec<DcpResult<LocalPartition>> = (0..parts)
            .into_par_iter()
            .map(|p| {
                let verts: Vec<u32> = (0..hg.num_vertices() as u32)
                    .filter(|&v| part.assignment[v as usize] == p)
                    .collect();
                if verts.is_empty() {
                    return Ok((Vec::new(), Vec::new(), true, PartitionStats::default()));
                }
                let (sub, map) = hg.induced_subgraph(&verts);
                // Seeded sub-level index within the part; still valid when
                // this level's refinement moved the vertex to another part.
                let local_seed: Vec<u32> = map
                    .iter()
                    .map(|&orig| dev_seed[orig as usize] % stride)
                    .collect();
                let (local, lb, ls) = self.place_warm_levels(
                    &sub,
                    &levels[1..],
                    seed.wrapping_add(p as u64 + 1),
                    &local_seed,
                )?;
                Ok((map, local, lb, ls))
            })
            .collect();
        let mut assignment = vec![0u32; hg.num_vertices()];
        for (p, res) in locals.into_iter().enumerate() {
            let (map, local, local_balanced, ls) = res?;
            balanced &= local_balanced;
            stats.merge(&ls);
            for (i, &orig) in map.iter().enumerate() {
                assignment[orig as usize] = p as u32 * stride + local[i];
            }
        }
        Ok((assignment, balanced, stats))
    }

    fn place(&self, layout: &BatchLayout) -> DcpResult<(Placement, bool, PartitionStats)> {
        let hg = self.build_hypergraph_in(layout);
        let nt = layout.token_blocks.len();
        let n = self.cluster.num_devices();
        let fw = self.fault_weights(n);
        let levels = self.placement_levels();
        let result = self.place_levels(&hg, &levels, self.cfg.seed, fw.as_deref(), 0);
        self.recycle_hg(hg);
        let (assignment, balanced, stats) = result?;
        Ok((
            Placement {
                num_devices: n,
                token_to_dev: assignment[..nt].to_vec(),
                comp_to_dev: assignment[nt..].to_vec(),
            },
            balanced,
            stats,
        ))
    }

    /// Cold placement through the level hierarchy: partition this level's
    /// graph `parts` ways (minimizing the traffic that would cross this
    /// fabric boundary), then recurse per part on the induced subgraph with
    /// a per-part derived seed. `weights` are per-device fault capacities
    /// over the *global* device space; `base` is this subproblem's first
    /// global device. The per-part subproblems are independent — solved on
    /// the rayon pool (the paper parallelizes planning across CPU cores,
    /// Sec. 6.1) and merged in part order, so the result is
    /// thread-count-independent.
    fn place_levels(
        &self,
        hg: &Hypergraph,
        levels: &[(u32, f64)],
        seed: u64,
        weights: Option<&[[f64; 2]]>,
        base: usize,
    ) -> DcpResult<(Vec<u32>, bool, PartitionStats)> {
        type LocalPartition = (Vec<u32>, Vec<u32>, bool, PartitionStats);
        let (parts, eps) = levels[0];
        let stride: u32 = levels[1..].iter().map(|l| l.0).product();
        let mut pc = PartitionConfig::new(parts)
            .with_epsilon(eps)
            .with_seed(seed);
        pc.refine_enabled = self.cfg.refine;
        if let Some(w) = weights {
            // A part's capacity is the sum of its member devices', re-scaled
            // to the load actually present in this subgraph.
            let totals = hg.part_weights(&vec![0u32; hg.num_vertices()], 1)[0];
            let span = stride as usize;
            let pw: Vec<[f64; 2]> = (0..parts as usize)
                .map(|p| {
                    let mut s = [0.0f64; 2];
                    for j in 0..span {
                        s[0] += w[base + p * span + j][0];
                        s[1] += w[base + p * span + j][1];
                    }
                    s
                })
                .collect();
            pc = pc.with_part_targets(Self::targets_from_weights(totals, &pw));
        }
        let (part, s1) = partition_with_stats(hg, &pc)?;
        if levels.len() == 1 {
            return Ok((part.assignment, part.balanced, s1));
        }
        let mut stats = s1;
        let mut balanced = part.balanced;
        use rayon::prelude::*;
        let locals: Vec<DcpResult<LocalPartition>> = (0..parts)
            .into_par_iter()
            .map(|p| {
                let verts: Vec<u32> = (0..hg.num_vertices() as u32)
                    .filter(|&v| part.assignment[v as usize] == p)
                    .collect();
                if verts.is_empty() {
                    return Ok((Vec::new(), Vec::new(), true, PartitionStats::default()));
                }
                let (sub, map) = hg.induced_subgraph(&verts);
                let (local, lb, ls) = self.place_levels(
                    &sub,
                    &levels[1..],
                    seed.wrapping_add(p as u64 + 1),
                    weights,
                    base + p as usize * stride as usize,
                )?;
                Ok((map, local, lb, ls))
            })
            .collect();
        let mut assignment = vec![0u32; hg.num_vertices()];
        for (p, res) in locals.into_iter().enumerate() {
            let (map, local, local_balanced, ls) = res?;
            balanced &= local_balanced;
            stats.merge(&ls);
            for (i, &orig) in map.iter().enumerate() {
                assignment[orig as usize] = p as u32 * stride + local[i];
            }
        }
        Ok((assignment, balanced, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner(nodes: u32) -> Planner {
        Planner::new(
            ClusterSpec::p4de(nodes),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                ..Default::default()
            },
        )
    }

    #[test]
    fn plan_is_valid_and_deterministic() {
        let p = planner(1);
        let seqs = vec![
            (16384, MaskSpec::Causal),
            (4096, MaskSpec::Causal),
            (2048, MaskSpec::paper_lambda()),
        ];
        let a = p.plan(&seqs).unwrap();
        verify_plan(&a.layout, &a.placement, &a.plan).unwrap();
        let b = p.plan(&seqs).unwrap();
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn compute_is_balanced_within_tolerance() {
        let p = planner(1);
        let seqs = vec![(32768, MaskSpec::Causal), (32768, MaskSpec::Causal)];
        let out = p.plan(&seqs).unwrap();
        let loads = out.placement.comp_loads(&out.layout);
        let total: u64 = loads.iter().sum();
        let avg = total as f64 / loads.len() as f64;
        let max = *loads.iter().max().unwrap() as f64;
        // eps_intra = 0.1 plus a block of granularity slack.
        let max_block = out
            .layout
            .comp_blocks
            .iter()
            .map(|c| c.flops)
            .max()
            .unwrap() as f64;
        assert!(
            max <= avg * 1.1 + max_block,
            "max {max} vs avg {avg} (+block {max_block})"
        );
    }

    #[test]
    fn short_sequences_avoid_communication() {
        // A batch of only short sequences (each smaller than a block)
        // should be placeable with zero communication (pure DP).
        let p = planner(1);
        let seqs: Vec<(u32, MaskSpec)> = (0..16).map(|_| (1024, MaskSpec::Causal)).collect();
        let out = p.plan(&seqs).unwrap();
        assert_eq!(
            out.plan.total_comm_bytes(),
            0,
            "every sequence fits on one device"
        );
    }

    #[test]
    fn hierarchical_reduces_inter_node_volume() {
        let seqs = vec![
            (65536, MaskSpec::Causal),
            (16384, MaskSpec::Causal),
            (16384, MaskSpec::Causal),
            (8192, MaskSpec::Causal),
        ];
        let cluster = ClusterSpec::p4de(2);
        let mk = |hier: bool| {
            Planner::new(
                cluster.clone(),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    hierarchical: hier,
                    ..Default::default()
                },
            )
        };
        let inter_bytes = |out: &PlanOutput| {
            let c = &cluster;
            out.plan.fwd.comm_bytes_where(|a, b| {
                c.node_of(dcp_types::DeviceId(a)) != c.node_of(dcp_types::DeviceId(b))
            })
        };
        let hier = mk(true).plan(&seqs).unwrap();
        let flat = mk(false).plan(&seqs).unwrap();
        assert!(
            inter_bytes(&hier) <= inter_bytes(&flat),
            "hier {} > flat {}",
            inter_bytes(&hier),
            inter_bytes(&flat)
        );
    }

    #[test]
    fn spine_topology_adds_a_leaf_level_and_cuts_cross_leaf_volume() {
        // 4 nodes, 2 per leaf: the planner should mirror the 3-tier fabric
        // with a [leaves, nodes, devices] refinement hierarchy and push
        // traffic off the oversubscribed spine.
        let seqs = vec![
            (65536, MaskSpec::Causal),
            (16384, MaskSpec::Causal),
            (16384, MaskSpec::Causal),
            (8192, MaskSpec::Causal),
        ];
        let spine = ClusterSpec::p4de_spine(4, 2, 4.0);
        let mk = |cluster: ClusterSpec| {
            Planner::new(
                cluster,
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    ..Default::default()
                },
            )
        };
        let aware = mk(spine.clone());
        assert_eq!(
            aware.placement_levels(),
            vec![
                (2, aware.cfg.eps_inter),
                (2, aware.cfg.eps_inter),
                (8, aware.cfg.eps_intra)
            ]
        );
        let aware_out = aware.plan(&seqs).unwrap();
        verify_plan(&aware_out.layout, &aware_out.placement, &aware_out.plan).unwrap();
        let blind_out = mk(ClusterSpec::p4de(4)).plan(&seqs).unwrap();
        let cross_leaf = |out: &PlanOutput| out.plan.fwd.comm_bytes_by_tier(&spine)[2];
        assert!(
            cross_leaf(&aware_out) <= cross_leaf(&blind_out),
            "aware {} > blind {}",
            cross_leaf(&aware_out),
            cross_leaf(&blind_out)
        );
    }

    #[test]
    fn looser_epsilon_no_more_comm() {
        let seqs = vec![(32768, MaskSpec::Causal), (8192, MaskSpec::Causal)];
        let comm = |eps: f64| {
            let p = Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    eps_intra: eps,
                    ..Default::default()
                },
            );
            p.plan(&seqs).unwrap().plan.fwd.total_comm_bytes()
        };
        let tight = comm(0.02);
        let loose = comm(0.8);
        assert!(loose <= tight, "loose {loose} > tight {tight}");
    }

    #[test]
    fn sparse_masks_cut_comm_vs_causal() {
        let p = planner(2);
        let causal = p.plan(&[(131072, MaskSpec::Causal)]).unwrap();
        let lambda = p.plan(&[(131072, MaskSpec::paper_lambda())]).unwrap();
        assert!(
            lambda.plan.total_comm_bytes() < causal.plan.total_comm_bytes() / 2,
            "lambda {} vs causal {}",
            lambda.plan.total_comm_bytes(),
            causal.plan.total_comm_bytes()
        );
    }

    #[test]
    fn empty_batch_rejected() {
        assert!(planner(1).plan(&[]).is_err());
    }

    #[test]
    fn zero_devices_is_an_error_not_a_panic() {
        let p = Planner::new(
            ClusterSpec::single_node(0),
            AttnSpec::paper_micro(),
            PlannerConfig::default(),
        );
        let err = p.plan(&[(4096, MaskSpec::Causal)]).unwrap_err();
        assert!(matches!(err, DcpError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn zero_divisions_is_an_error_not_a_panic() {
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                divisions: 0,
                ..Default::default()
            },
        );
        let err = p.plan(&[(4096, MaskSpec::Causal)]).unwrap_err();
        assert!(matches!(err, DcpError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn zero_block_size_is_an_error_not_a_panic() {
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 0,
                ..Default::default()
            },
        );
        assert!(p.plan(&[(4096, MaskSpec::Causal)]).is_err());
    }

    #[test]
    fn default_plans_use_the_partitioned_tier() {
        let p = planner(1);
        let out = p.plan(&[(16384, MaskSpec::Causal)]).unwrap();
        assert_eq!(out.tier, PlanTier::Partitioned);
        assert!(out.fallback_reason.is_none());
    }

    #[test]
    fn forced_greedy_and_static_tiers_produce_valid_plans() {
        let seqs = vec![(16384, MaskSpec::Causal), (4096, MaskSpec::Causal)];
        for tier in [PlanTier::Greedy, PlanTier::Static] {
            let p = Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    force_tier: Some(tier),
                    ..Default::default()
                },
            );
            let out = p.plan(&seqs).unwrap();
            assert_eq!(out.tier, tier);
            verify_plan(&out.layout, &out.placement, &out.plan).unwrap();
            assert_eq!(out.num_devices(), 8);
        }
    }

    #[test]
    fn infeasible_epsilon_falls_back_instead_of_erroring() {
        // strict ε = 0 with coarse blocks cannot be met exactly (block
        // granularity), so the partitioned tier is ε-infeasible; with
        // fallback enabled the plan must still come back valid, from a
        // degraded tier, with the reason recorded.
        let seqs = vec![(16384, MaskSpec::Causal), (2048, MaskSpec::Causal)];
        let mk = |fallback: bool| {
            Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 4096,
                    eps_intra: 0.0,
                    strict_epsilon: true,
                    fallback,
                    ..Default::default()
                },
            )
        };
        let out = mk(true).plan(&seqs).unwrap();
        assert_ne!(out.tier, PlanTier::Partitioned, "ε = 0 must be infeasible");
        verify_plan(&out.layout, &out.placement, &out.plan).unwrap();
        let reason = out.fallback_reason.expect("reason recorded");
        assert!(reason.contains("partitioned"), "{reason}");
        // Strict mode surfaces the infeasibility instead.
        let err = mk(false).plan(&seqs).unwrap_err();
        assert!(matches!(err, DcpError::Infeasible(_)), "{err}");
    }

    #[test]
    fn tiny_regression_limit_rejects_every_fallback_tier() {
        // Same ε-infeasible setup as `infeasible_epsilon_falls_back...`, but
        // with an absurdly tight quality gate: every fallback candidate
        // regresses past it, the chain exhausts, and the typed rejection
        // surfaces instead of a silently degraded plan.
        let seqs = vec![(16384, MaskSpec::Causal), (2048, MaskSpec::Causal)];
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 4096,
                eps_intra: 0.0,
                strict_epsilon: true,
                max_fallback_regression: 1e-6,
                ..Default::default()
            },
        );
        let err = p.plan(&seqs).unwrap_err();
        assert!(matches!(err, DcpError::FallbackRejected { .. }), "{err}");
    }

    #[test]
    fn force_tier_skips_the_fallback_gate() {
        // Pinning a tier is an explicit user decision; there is no
        // partitioned reference to compare against, so the gate must not
        // veto it even at an impossible limit.
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                force_tier: Some(PlanTier::Static),
                max_fallback_regression: 1e-6,
                ..Default::default()
            },
        );
        let out = p.plan(&[(16384, MaskSpec::Causal)]).unwrap();
        assert_eq!(out.tier, PlanTier::Static);
    }

    #[test]
    fn fault_aware_placement_shifts_load_off_straggler() {
        use dcp_sim::Fault;
        let seqs = vec![(32768, MaskSpec::Causal), (32768, MaskSpec::Causal)];
        let mk = |spec: Option<FaultSpec>| {
            Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    fault_spec: spec,
                    ..Default::default()
                },
            )
        };
        let healthy = mk(None).plan(&seqs).unwrap();
        let spec = FaultSpec {
            seed: 0,
            faults: vec![Fault::Straggler {
                device: 0,
                slowdown: 4.0,
            }],
        };
        let aware = mk(Some(spec)).plan(&seqs).unwrap();
        assert_eq!(
            aware.tier,
            PlanTier::Partitioned,
            "{:?}",
            aware.fallback_reason
        );
        let hl = healthy.placement.comp_loads(&healthy.layout);
        let al = aware.placement.comp_loads(&aware.layout);
        assert!(
            (al[0] as f64) < 0.6 * hl[0] as f64,
            "straggler kept its load: {} vs healthy {}",
            al[0],
            hl[0]
        );
    }

    #[test]
    fn empty_fault_spec_places_identically_to_none() {
        let seqs = vec![(16384, MaskSpec::Causal), (4096, MaskSpec::Causal)];
        let mk = |spec: Option<FaultSpec>| {
            Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    fault_spec: spec,
                    ..Default::default()
                },
            )
        };
        let a = mk(None).plan(&seqs).unwrap();
        let b = mk(Some(FaultSpec {
            seed: 0,
            faults: Vec::new(),
        }))
        .plan(&seqs)
        .unwrap();
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn plan_output_roundtrips_through_json() {
        let p = planner(1);
        let out = p.plan(&[(8192, MaskSpec::Causal)]).unwrap();
        let j = serde_json::to_string(&out).unwrap();
        let back: PlanOutput = serde_json::from_str(&j).unwrap();
        assert_eq!(back.placement, out.placement);
        assert_eq!(back.plan, out.plan);
        assert_eq!(back.tier, out.tier);
    }

    #[test]
    fn greedy_fallback_balances_compute() {
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                force_tier: Some(PlanTier::Greedy),
                ..Default::default()
            },
        );
        let out = p.plan(&[(32768, MaskSpec::Causal)]).unwrap();
        let loads = out.placement.comp_loads(&out.layout);
        let avg = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        let max_block = out
            .layout
            .comp_blocks
            .iter()
            .map(|c| c.flops)
            .max()
            .unwrap();
        let max = *loads.iter().max().unwrap();
        assert!(
            (max as f64) <= avg + max_block as f64,
            "greedy LPT bound violated: max {max} avg {avg}"
        );
    }

    #[test]
    fn cache_hit_is_bitwise_equal_to_fresh_plan() {
        let p = planner(2);
        let seqs = vec![
            (16384, MaskSpec::Causal),
            (4096, MaskSpec::paper_lambda()),
            (2048, MaskSpec::Causal),
        ];
        let cold = p.plan(&seqs).unwrap();
        assert!(!cold.stats.cache_hit);
        let warm = p.plan(&seqs).unwrap();
        assert!(warm.stats.cache_hit);
        // A fresh planner (empty cache) must produce the identical plan.
        let fresh = planner(2).plan(&seqs).unwrap();
        for out in [&warm, &fresh] {
            assert_eq!(out.placement, cold.placement);
            assert_eq!(out.plan, cold.plan);
            assert_eq!(out.tier, cold.tier);
        }
        assert_eq!(p.cache_stats(), (1, 1));
    }

    #[test]
    fn differing_masks_or_configs_never_collide() {
        // Same lengths, different mask: must be a miss, not a false hit.
        let p = planner(1);
        let a = p.plan(&[(16384, MaskSpec::Causal)]).unwrap();
        let b = p.plan(&[(16384, MaskSpec::paper_lambda())]).unwrap();
        assert!(!a.stats.cache_hit && !b.stats.cache_hit);
        assert_eq!(p.cache_stats(), (0, 2));
        // Same batch, different config: separate planners share nothing,
        // but even the signature must differ.
        let mk = |seed: u64| {
            Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    seed,
                    ..Default::default()
                },
            )
        };
        let seqs = [(8192, MaskSpec::Causal)];
        assert_ne!(mk(1).signature(&seqs), mk(2).signature(&seqs));
        // Batch order is part of the signature (plans are order-sensitive).
        let fwd = [(16384, MaskSpec::Causal), (4096, MaskSpec::Causal)];
        let rev = [(4096, MaskSpec::Causal), (16384, MaskSpec::Causal)];
        assert_ne!(mk(1).signature(&fwd), mk(1).signature(&rev));
    }

    #[test]
    fn cache_is_shared_across_clones_and_lru_bounded() {
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                plan_cache: 2,
                ..Default::default()
            },
        );
        let s1 = [(8192, MaskSpec::Causal)];
        let s2 = [(12288, MaskSpec::Causal)];
        let s3 = [(16384, MaskSpec::Causal)];
        p.plan(&s1).unwrap();
        // A clone sees the entry (shared cache).
        assert!(p.clone().plan(&s1).unwrap().stats.cache_hit);
        // Fill past capacity: s3 evicts the least-recently-used entry (s1).
        p.plan(&s2).unwrap();
        p.plan(&s3).unwrap();
        assert!(p.plan(&s3).unwrap().stats.cache_hit);
        assert!(p.plan(&s2).unwrap().stats.cache_hit);
        assert!(!p.plan(&s1).unwrap().stats.cache_hit, "s1 was evicted");
    }

    #[test]
    fn plan_cache_zero_disables_caching() {
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                plan_cache: 0,
                ..Default::default()
            },
        );
        let seqs = [(8192, MaskSpec::Causal)];
        assert!(!p.plan(&seqs).unwrap().stats.cache_hit);
        assert!(!p.plan(&seqs).unwrap().stats.cache_hit);
        assert_eq!(p.cache_stats(), (0, 0));
    }

    #[test]
    fn stats_record_stage_times_on_miss() {
        let p = planner(2);
        let out = p.plan(&[(32768, MaskSpec::Causal)]).unwrap();
        let s = out.stats;
        assert!(!s.cache_hit);
        assert!(s.coarsen_s > 0.0, "coarsening must be timed: {s:?}");
        assert!(s.refine_s > 0.0, "refinement must be timed: {s:?}");
        assert!(s.total_s >= s.schedule_s, "{s:?}");
    }

    #[test]
    fn hypergraph_cost_matches_plan_forward_comm() {
        // The connectivity−1 objective is exactly the forward communication
        // volume the schedule realizes.
        let p = planner(1);
        let seqs = vec![(16384, MaskSpec::Causal), (4096, MaskSpec::paper_lambda())];
        let out = p.plan(&seqs).unwrap();
        let hg = Planner::build_hypergraph(&out.layout);
        let nt = out.layout.token_blocks.len();
        let mut assignment = out.placement.token_to_dev.clone();
        assignment.extend_from_slice(&out.placement.comp_to_dev);
        let cost = hg.connectivity_cost(&assignment, out.placement.num_devices);
        assert_eq!(cost, out.plan.fwd.total_comm_bytes());
        let _ = nt;
    }

    #[test]
    fn poisoned_cache_lock_recovers_and_planner_still_works() {
        let p = planner(1);
        let seqs = vec![(16384, MaskSpec::Causal), (4096, MaskSpec::Causal)];
        p.plan(&seqs).unwrap();
        // Poison the shared cache mutex: a clone's thread panics while
        // holding the guard (what a panicking plan under catch_unwind does).
        let p2 = p.clone();
        std::thread::spawn(move || {
            let _guard = p2.cache.lock().unwrap();
            panic!("poisoned on purpose");
        })
        .join()
        .unwrap_err();
        // The planner must recover — clearing the cache, not deadlocking or
        // propagating the poison to every future plan() call.
        let out = p.plan(&seqs).unwrap();
        assert!(
            !out.stats.cache_hit,
            "recovery clears the cache, so this is a miss"
        );
        verify_plan(&out.layout, &out.placement, &out.plan).unwrap();
        // And caching works again after recovery.
        assert!(p.plan(&seqs).unwrap().stats.cache_hit);
    }

    #[test]
    fn cache_capacity_is_not_part_of_signature() {
        // Changing only cache capacities must not change the signature: a
        // restarted planner with a retuned cache still warm-hits on plans
        // persisted under the old config.
        let mk = |cap: usize, near: usize| {
            Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    plan_cache: cap,
                    incremental: IncrementalConfig {
                        near_cache: near,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
        };
        let seqs = [(8192, MaskSpec::Causal), (4096, MaskSpec::paper_lambda())];
        assert_eq!(mk(16, 8).signature(&seqs), mk(64, 2).signature(&seqs));
        assert_eq!(
            mk(16, 8).near_signature(&seqs),
            mk(64, 2).near_signature(&seqs)
        );
        // Semantic incremental knobs DO key: the regression bound changes
        // which plans are acceptable, so it must split the cache space.
        let mk_bound = |max_regression: f64| {
            Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    incremental: IncrementalConfig {
                        enabled: true,
                        max_regression,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
        };
        assert_ne!(
            mk_bound(1.25).signature(&seqs),
            mk_bound(2.0).signature(&seqs)
        );
    }

    fn incremental_planner(nodes: u32) -> Planner {
        Planner::new(
            ClusterSpec::p4de(nodes),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                // Exact cache off so the second plan() exercises the warm
                // path instead of returning the memoized output.
                plan_cache: 0,
                incremental: IncrementalConfig {
                    enabled: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn near_hit_on_identical_batch_is_bitwise_equal_to_cold() {
        // Warm-starting FM from its own converged placement is a fixed
        // point, so re-planning the identical batch through the near-hit
        // path must reproduce the cold plan bit for bit.
        for nodes in [1, 2] {
            let p = incremental_planner(nodes);
            let seqs = vec![
                (16384, MaskSpec::Causal),
                (4096, MaskSpec::paper_lambda()),
                (2048, MaskSpec::Causal),
            ];
            let cold = p.plan(&seqs).unwrap();
            assert!(!cold.stats.near_hit);
            let warm = p.plan(&seqs).unwrap();
            assert!(warm.stats.near_hit, "nodes={nodes}: expected a near hit");
            assert!(!warm.stats.cache_hit);
            assert_eq!(warm.placement, cold.placement, "nodes={nodes}");
            assert_eq!(warm.plan, cold.plan, "nodes={nodes}");
            assert_eq!(warm.tier, PlanTier::Partitioned);
            assert_eq!(p.near_cache_stats(), (1, 1));
        }
    }

    #[test]
    fn near_hit_on_similar_batch_yields_valid_verified_plan() {
        // Lengths off by a few tokens bucket to the same block counts, so
        // the second batch near-hits the first one's seed. The warm plan
        // must be a legal, verified plan regardless of whether the quality
        // bound accepted the warm placement.
        let p = incremental_planner(2);
        let a = vec![(16384, MaskSpec::Causal), (4096, MaskSpec::Causal)];
        let b = vec![(16380, MaskSpec::Causal), (4090, MaskSpec::Causal)];
        assert_eq!(p.near_signature(&a), p.near_signature(&b));
        p.plan(&a).unwrap();
        let out = p.plan(&b).unwrap();
        assert_eq!(p.near_cache_stats().0, 1, "seed lookup must hit");
        verify_plan(&out.layout, &out.placement, &out.plan).unwrap();
    }

    #[test]
    fn near_hit_respects_incremental_disabled() {
        // Default config: incremental off — repeated batches with the exact
        // cache disabled must plan cold every time.
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                plan_cache: 0,
                ..Default::default()
            },
        );
        let seqs = vec![(8192, MaskSpec::Causal)];
        p.plan(&seqs).unwrap();
        let out = p.plan(&seqs).unwrap();
        assert!(!out.stats.near_hit);
        assert_eq!(p.near_cache_stats(), (0, 0));
    }

    #[test]
    fn near_cache_is_lru_bounded() {
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                plan_cache: 0,
                incremental: IncrementalConfig {
                    enabled: true,
                    near_cache: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let s1 = vec![(8192, MaskSpec::Causal)];
        let s2 = vec![(12288, MaskSpec::Causal)];
        p.plan(&s1).unwrap();
        assert!(p.plan(&s1).unwrap().stats.near_hit, "s1's seed is live");
        p.plan(&s2).unwrap(); // evicts s1's seed (capacity 1)
                              // Cold again (the eviction check) — and this cold plan re-seeds s1.
        assert!(
            !p.plan(&s1).unwrap().stats.near_hit,
            "s1's seed was evicted"
        );
        assert!(p.plan(&s1).unwrap().stats.near_hit, "s1 was re-seeded");
    }
}
