//! Division scheduling, buffer management and the execution-plan IR
//! (paper Sec. 4.3 and Sec. 5).
//!
//! Given a [`dcp_blocks::BatchLayout`] and a [`Placement`] (the device
//! assignment of every token block and computation block, produced by the
//! hypergraph partitioner or by a baseline), this crate:
//!
//! 1. derives the required communication (input fetches and output partial
//!    returns, deduplicated per destination device),
//! 2. groups each device's computation blocks into `T` *divisions* with the
//!    paper's greedy heuristic (Listing 3), so the communication of division
//!    `i+1` overlaps the computation of division `i`,
//! 3. emits per-device instruction streams over the paper's five
//!    instructions — blockwise attention, blockwise reduction, blockwise
//!    copy, communication launch, communication wait — for both the forward
//!    and the backward pass, and
//! 4. replays the streams through a [`buffer::BufferManager`] to account for
//!    peak block-buffer memory with slot reuse.
//!
//! The resulting [`ExecutionPlan`] is consumed by the numerical executor
//! (`dcp-exec`) and by the cluster simulator (`dcp-sim`), and serializes to
//! JSON for the dataloader-to-executor handoff the paper implements with a
//! distributed KV store. [`StreamMachine`] is the plan IR's one
//! interpreter and legality contract: the [`verify`] module runs it with no
//! effects, `dcp-exec` with numeric ones.

pub mod buffer;
pub mod machine;
pub mod passes;
pub mod placement;
pub mod plan;
pub mod report;
pub mod schedule;
pub mod verify;

pub use buffer::BufferStats;
pub use machine::{Effects, StreamMachine};
pub use passes::{Pass, PassConfig, PassCx, PassManager, PassOutcome};
pub use placement::Placement;
pub use plan::{
    CommId, CommOp, DeviceStream, ExecutionPlan, Instr, Payload, PayloadKind, PhasePlan,
    ReduceItem, Transfer,
};
pub use report::{DeviceReport, DivisionReport, PlanReport};
pub use schedule::{build_plan, ScheduleConfig};
pub use verify::{
    verify_phase, verify_plan, verify_structure, Diagnostic, VerifyCtx, ViolationKind,
};
