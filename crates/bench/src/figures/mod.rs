//! Figure/table reproductions. One function per paper table or figure;
//! each returns a printable [`Table`](crate::table::Table) (Figure 4: one
//! per model) whose rows are the same series the paper reports (with the
//! paper's headline values quoted in the notes for side-by-side
//! comparison). [`EXPERIMENTS`](crate::experiments::EXPERIMENTS) lists
//! them in paper order; the [`extensions`] beyond the paper come last.

pub mod breakdowns;
pub mod characterization;
pub mod extensions;
pub mod gpus;
pub mod headline;
pub mod specialization;
pub mod vpu;
