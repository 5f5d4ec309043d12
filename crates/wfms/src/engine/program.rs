//! Workflow types compiled for execution.
//!
//! [`Engine::deploy`](super::Engine::deploy) compiles each workflow type
//! once into a [`Program`]: steps get ordinals (their definition order),
//! every step gets its incoming and outgoing edge lists, and receive
//! steps are indexed by channel. Instances hold an `Arc` of the program
//! they were created with, so the interpreter never resolves a step or an
//! edge by name, and replacing a type mid-flight leaves running instances
//! on the version they started with.

use crate::model::{ChannelId, StepDef, StepId, StepKind, WorkflowType};

/// A step of one program, ordered like the step's *name*: queues sorted
/// into canonical order (waiters, timers, deferred spawns and parent
/// completions) get name order from a copyable key instead of a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct StepRef {
    /// Position of the step's name among the program's sorted names.
    rank: u32,
    /// The step's ordinal.
    ix: u32,
}

impl StepRef {
    /// The step's ordinal.
    pub(crate) fn ix(self) -> usize {
        self.ix as usize
    }
}

/// A deployed workflow type in executable form.
#[derive(Debug)]
pub(crate) struct Program {
    def: WorkflowType,
    /// Every index of the program in one allocation, for `n` steps, `m`
    /// edges and `r` receive steps:
    ///
    /// | range | content |
    /// |---|---|
    /// | `n` | per step ordinal, the rank of its name |
    /// | `n` | per rank, the step ordinal |
    /// | `n + 1` | start of each step's incoming list (then `m`) |
    /// | `n + 1` | start of each step's outgoing list (then `m`) |
    /// | `m` | incoming edge indices, grouped by step, in edge order |
    /// | `m` | outgoing edge indices, grouped by step, in edge order |
    /// | `r` | receive-step ordinals, grouped by channel, in step order |
    table: Box<[u32]>,
    /// Each receive channel with its group's end offset among the `r`
    /// receive steps, in channel order.
    receive_channels: Box<[(ChannelId, u32)]>,
}

impl Program {
    /// Compiles a (validated) workflow type. Hosts deploy types per
    /// partner, so compiling makes four allocations whatever the type's
    /// size and resolves each edge endpoint once.
    pub(crate) fn compile(def: WorkflowType) -> Self {
        let steps = def.steps();
        let (n, m) = (steps.len(), def.edges().len());
        let is_receive = |s: &StepDef| matches!(s.kind, StepKind::Receive { .. });
        let r = steps.iter().filter(|s| is_receive(s)).count();
        let mut table = vec![0u32; 4 * n + 2 + 2 * m + r];
        let (ranks, rest) = table.split_at_mut(n);
        let (by_name, rest) = rest.split_at_mut(n);
        let (in_at, rest) = rest.split_at_mut(n + 1);
        let (out_at, rest) = rest.split_at_mut(n + 1);
        let (in_edges, rest) = rest.split_at_mut(m);
        let (out_edges, receives) = rest.split_at_mut(m);

        for (rank, ix) in by_name.iter_mut().enumerate() {
            *ix = rank as u32;
        }
        by_name.sort_unstable_by(|&a, &b| steps[a as usize].id.cmp(&steps[b as usize].id));
        for (rank, &ix) in by_name.iter().enumerate() {
            ranks[ix as usize] = rank as u32;
        }

        // Edge lists, counting-sorted by endpoint: count each step's
        // edges into the slot two past its start, prefix-sum, then place
        // each edge at its step's cursor (the slot one past its start),
        // which leaves every cursor at the next step's start.
        let ordinal = |id: &StepId| -> usize {
            let rank = by_name
                .binary_search_by(|&ix| steps[ix as usize].id.cmp(id))
                .expect("validated edges name existing steps");
            by_name[rank] as usize
        };
        let ends: Vec<(usize, usize)> =
            def.edges().iter().map(|e| (ordinal(&e.to), ordinal(&e.from))).collect();
        for &(to, from) in &ends {
            if to + 2 <= n {
                in_at[to + 2] += 1;
            }
            if from + 2 <= n {
                out_at[from + 2] += 1;
            }
        }
        for i in 2..=n {
            in_at[i] += in_at[i - 1];
            out_at[i] += out_at[i - 1];
        }
        for (e, &(to, from)) in ends.iter().enumerate() {
            in_edges[in_at[to + 1] as usize] = e as u32;
            in_at[to + 1] += 1;
            out_edges[out_at[from + 1] as usize] = e as u32;
            out_at[from + 1] += 1;
        }

        // Receive steps, stably sorted by channel.
        let channel = |ix: u32| match &steps[ix as usize].kind {
            StepKind::Receive { channel, .. } => channel,
            _ => unreachable!("only receive steps are indexed"),
        };
        let mut next = 0;
        for (ix, step) in steps.iter().enumerate() {
            if is_receive(step) {
                receives[next] = ix as u32;
                next += 1;
            }
        }
        receives.sort_by(|&a, &b| channel(a).cmp(channel(b)));
        let groups = 1 + receives.windows(2).filter(|w| channel(w[0]) != channel(w[1])).count();
        let mut receive_channels: Vec<(ChannelId, u32)> = Vec::with_capacity(groups.min(r));
        for (end, &ix) in receives.iter().enumerate() {
            match receive_channels.last_mut() {
                Some((last, at)) if last == channel(ix) => *at = end as u32 + 1,
                _ => receive_channels.push((channel(ix).clone(), end as u32 + 1)),
            }
        }

        Self {
            table: table.into_boxed_slice(),
            receive_channels: receive_channels.into_boxed_slice(),
            def,
        }
    }

    /// The definition this program was compiled from.
    pub(crate) fn def(&self) -> &WorkflowType {
        &self.def
    }

    /// Number of steps.
    pub(crate) fn step_count(&self) -> usize {
        self.def.steps().len()
    }

    /// Number of edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.def.edges().len()
    }

    /// The step with ordinal `ix`.
    pub(crate) fn step(&self, ix: usize) -> &StepDef {
        &self.def.steps()[ix]
    }

    /// The canonical reference of step `ix`.
    pub(crate) fn step_ref(&self, ix: usize) -> StepRef {
        StepRef { rank: self.table[ix], ix: ix as u32 }
    }

    /// Ordinal of the step named `id`.
    pub(crate) fn lookup(&self, id: &StepId) -> Option<usize> {
        let n = self.step_count();
        let by_name = &self.table[n..2 * n];
        by_name
            .binary_search_by(|&ix| self.def.steps()[ix as usize].id.cmp(id))
            .ok()
            .map(|rank| by_name[rank] as usize)
    }

    /// Edge indices into step `ix`, in definition order.
    pub(crate) fn incoming(&self, ix: usize) -> &[u32] {
        let n = self.step_count();
        let (at, base) = (2 * n, 4 * n + 2);
        &self.table[base + self.table[at + ix] as usize..base + self.table[at + ix + 1] as usize]
    }

    /// Edge indices out of step `ix`, in definition order.
    pub(crate) fn outgoing(&self, ix: usize) -> &[u32] {
        let n = self.step_count();
        let (at, base) = (3 * n + 1, 4 * n + 2 + self.edge_count());
        &self.table[base + self.table[at + ix] as usize..base + self.table[at + ix + 1] as usize]
    }

    /// Receive steps on `channel`, in definition order.
    pub(crate) fn receivers(&self, channel: &ChannelId) -> &[u32] {
        let receives = &self.table[4 * self.step_count() + 2 + 2 * self.edge_count()..];
        let mut start = 0;
        for (c, end) in self.receive_channels.iter() {
            if c == channel {
                return &receives[start..*end as usize];
            }
            start = *end as usize;
        }
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{StepDef, WorkflowBuilder};

    fn diamond() -> Program {
        Program::compile(
            WorkflowBuilder::new("d")
                .step(StepDef::receive("z-in", "in", "po"))
                .step(StepDef::noop("b"))
                .step(StepDef::receive("a-ack", "ack", "ack"))
                .step(StepDef::receive("c-in", "in", "po2"))
                .edge("z-in", "b")
                .edge("z-in", "a-ack")
                .edge("b", "c-in")
                .edge("a-ack", "c-in")
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn edge_lists_match_a_scan_of_the_definition() {
        let p = diamond();
        for ix in 0..p.step_count() {
            let id = &p.step(ix).id;
            let scan = |to: bool| -> Vec<u32> {
                (0..p.edge_count() as u32)
                    .filter(|&e| {
                        let edge = &p.def().edges()[e as usize];
                        if to {
                            &edge.to == id
                        } else {
                            &edge.from == id
                        }
                    })
                    .collect()
            };
            assert_eq!(p.incoming(ix), scan(true), "incoming of {id}");
            assert_eq!(p.outgoing(ix), scan(false), "outgoing of {id}");
        }
    }

    #[test]
    fn step_refs_order_like_names_and_lookups_resolve() {
        let p = diamond();
        let mut refs: Vec<StepRef> = (0..p.step_count()).map(|ix| p.step_ref(ix)).collect();
        refs.sort();
        let names: Vec<&str> = refs.iter().map(|r| p.step(r.ix()).id.as_str()).collect();
        assert_eq!(names, ["a-ack", "b", "c-in", "z-in"]);
        for ix in 0..p.step_count() {
            assert_eq!(p.lookup(&p.step(ix).id), Some(ix));
        }
        assert_eq!(p.lookup(&StepId::new("ghost")), None);
    }

    #[test]
    fn receivers_are_indexed_by_channel_in_step_order() {
        let p = diamond();
        assert_eq!(p.receivers(&ChannelId::new("in")), [0, 3]);
        assert_eq!(p.receivers(&ChannelId::new("ack")), [2]);
        assert!(p.receivers(&ChannelId::new("none")).is_empty());
    }
}
