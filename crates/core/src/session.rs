//! Session lifecycle and indexing.
//!
//! A *session* is one business interaction: the public, binding, private,
//! and (optionally) back-end binding instances an enterprise runs for one
//! `(correlation, counterparty)` pair. The `SessionTable` owns every
//! session plus the indexes the runtime routes through — all O(1):
//!
//! * `(correlation, partner)` → session (wire routing key; a broadcast RFQ
//!   shares one correlation across several partners),
//! * instance id → session (outbox routing),
//! * correlation → member sessions (aggregate queries),
//!
//! and it *caches* each session's [`SessionState`] plus per-correlation
//! completion counters, so `session_state`, `session_state_with`, and
//! `completed_sessions` never scan the table. Callers mutate failure
//! markers only through table methods, which keep the caches coherent;
//! after the engine settles, `SessionTable::refresh_instances` folds the
//! touched instances back into the caches.
//!
//! Layout: the table is sized for millions of open sessions. Correlation
//! and partner strings are interned once into symbol arenas (`u32`
//! symbols, `Arc<str>` storage shared by every session that names them),
//! the `(correlation, partner)` routing key is an FNV-hashed `(u32, u32)`
//! map, the instance index is a dense slot array (the WFMS allocates
//! instance ids contiguously from 1), and per-correlation groups are
//! slot-id slices sorted by construction. `SessionTable::memory_footprint`
//! reports the measured bytes-per-open-session this buys.

use crate::binding::BindingRole;
use b2b_document::CorrelationId;
use b2b_network::fnv::FnvMap;
use b2b_wfms::{Engine as WfEngine, InstanceId, InstanceStatus};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Externally visible state of one business interaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionState {
    /// Still exchanging messages.
    InProgress,
    /// Every process instance of the session completed.
    Completed,
    /// Some instance failed (reason recorded).
    Failed(String),
}

/// One enterprise's half of one business interaction.
///
/// String-valued identity fields are `Arc<str>`: [`SessionTable::insert`]
/// interns them, so a broadcast RFQ to 1000 partners stores its
/// correlation once, and every session with partner `TP1` shares one
/// allocation of the name.
#[derive(Debug)]
pub(crate) struct Session {
    pub correlation: Arc<str>,
    pub agreement_id: Arc<str>,
    pub role: BindingRole,
    pub partner: Arc<str>,
    pub public: InstanceId,
    pub binding: InstanceId,
    pub private: Option<InstanceId>,
    pub backend_binding: Option<InstanceId>,
    pub backend: Option<Arc<str>>,
    pub failure: Option<String>,
    /// Whether the counterparty has been (or need not be) told about a
    /// failure of this session — set on notify-out and on notify-in, so
    /// notifications never echo back and forth.
    pub notified: bool,
}

/// A session about to be inserted, its identity strings borrowed:
/// [`SessionTable::insert`] interns them, so creating a session allocates
/// no string that the table already holds.
pub(crate) struct NewSession<'a> {
    pub correlation: &'a str,
    pub agreement_id: &'a str,
    pub role: BindingRole,
    pub partner: &'a str,
    pub public: InstanceId,
    pub binding: InstanceId,
    pub private: Option<InstanceId>,
    pub backend: Option<&'a str>,
}

/// Per-correlation aggregate counters plus the member slice.
#[derive(Debug, Default)]
struct Group {
    total: usize,
    completed: usize,
    failed: usize,
    /// Member session slots in creation order — slot ids only grow, so
    /// the slice is ascending (sorted) by construction.
    members: Vec<u32>,
}

impl Group {
    fn is_complete(&self) -> bool {
        self.total > 0 && self.failed == 0 && self.completed == self.total
    }
}

/// Interns strings to dense `u32` symbols; the canonical `Arc<str>` is
/// shared between the arena's reverse map and every interested session.
#[derive(Debug, Default)]
struct SymbolArena {
    names: Vec<Arc<str>>,
    index: FnvMap<Arc<str>, u32>,
}

impl SymbolArena {
    /// Interns `name`, returning its symbol and the canonical allocation.
    fn intern(&mut self, name: &str) -> (u32, Arc<str>) {
        if let Some(&sym) = self.index.get(name) {
            return (sym, Arc::clone(&self.names[sym as usize]));
        }
        let sym = u32::try_from(self.names.len()).expect("symbol arena overflow");
        let arc: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&arc));
        self.index.insert(Arc::clone(&arc), sym);
        (sym, arc)
    }

    /// The symbol of an already-interned name (read path: no allocation).
    fn lookup(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// Retained heap bytes: string storage plus both directions of the
    /// mapping.
    fn retained_bytes(&self) -> usize {
        let strings: usize = self.names.iter().map(|n| n.len()).sum();
        strings
            + self.names.capacity() * std::mem::size_of::<Arc<str>>()
            + self.index.capacity() * std::mem::size_of::<(Arc<str>, u32)>()
    }
}

/// Slot sentinel for "no session owns this instance id".
const NO_SESSION: u32 = u32::MAX;

/// All sessions of one engine plus the routing indexes and state caches.
#[derive(Debug, Default)]
pub(crate) struct SessionTable {
    sessions: Vec<Session>,
    /// Cached state per session, refreshed from touched instances.
    states: Vec<SessionState>,
    /// Interned correlation symbol per session (parallel to `sessions`).
    corr_syms: Vec<u32>,
    /// Correlation strings, interned once per correlation.
    corrs: SymbolArena,
    /// Partner names, interned once per partner.
    partners: SymbolArena,
    /// Agreement ids and back-end names — interned for sharing only (no
    /// symbol is stored); a few distinct values across millions of
    /// sessions.
    misc: SymbolArena,
    /// Wire routing key: two interned symbols, FNV-hashed.
    by_corr_partner: FnvMap<(u32, u32), u32>,
    /// Dense instance-id → slot array (the WFMS allocates ids from 1).
    by_instance: Vec<u32>,
    /// Per-correlation groups, indexed by correlation symbol.
    groups: Vec<Group>,
    /// Σ group size over complete groups — `completed_sessions` in O(1).
    completed_total: usize,
    /// Failed-and-unnotified sessions, maintained incrementally by
    /// `apply_state` / `set_notified` / `clear_failure` so the failure
    /// notification stage visits exactly the sessions that need a notice
    /// instead of scanning the whole table every pump. A `BTreeSet` so the
    /// visit order matches the historical full-scan order (ascending
    /// index).
    pending_failed: BTreeSet<usize>,
    /// `refresh_instances`' buffer of touched session indices, kept
    /// between calls so a refresh allocates nothing.
    touched_scratch: Vec<usize>,
}

impl SessionTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a session (cached state starts `InProgress`), interning its
    /// identity strings and registering its instances; returns its index.
    pub fn insert(&mut self, new: NewSession<'_>) -> usize {
        let index = self.sessions.len();
        let slot = u32::try_from(index).expect("session table overflow");
        let (corr_sym, correlation) = self.corrs.intern(new.correlation);
        let (partner_sym, partner) = self.partners.intern(new.partner);
        let session = Session {
            correlation,
            agreement_id: self.misc.intern(new.agreement_id).1,
            role: new.role,
            partner,
            public: new.public,
            binding: new.binding,
            private: new.private,
            backend_binding: None,
            backend: new.backend.map(|b| self.misc.intern(b).1),
            failure: None,
            notified: false,
        };
        self.by_corr_partner.insert((corr_sym, partner_sym), slot);
        self.set_instance(session.public, slot);
        self.set_instance(session.binding, slot);
        if let Some(p) = session.private {
            self.set_instance(p, slot);
        }
        if self.groups.len() <= corr_sym as usize {
            self.groups.resize_with(corr_sym as usize + 1, Group::default);
        }
        let group = &mut self.groups[corr_sym as usize];
        if group.is_complete() {
            // A fresh in-progress member reopens a completed group.
            self.completed_total -= group.total;
        }
        group.total += 1;
        group.members.push(slot);
        self.sessions.push(session);
        self.states.push(SessionState::InProgress);
        self.corr_syms.push(corr_sym);
        index
    }

    /// Points the dense instance index at a session slot.
    fn set_instance(&mut self, id: InstanceId, slot: u32) {
        let raw = id.value() as usize;
        if self.by_instance.len() <= raw {
            self.by_instance.resize(raw + 1, NO_SESSION);
        }
        self.by_instance[raw] = slot;
    }

    pub fn session(&self, index: usize) -> &Session {
        &self.sessions[index]
    }

    /// Cached state of one session (O(1)).
    pub fn state(&self, index: usize) -> &SessionState {
        &self.states[index]
    }

    /// Correlations of all sessions, in creation order.
    pub fn correlations(&self) -> Vec<CorrelationId> {
        self.sessions.iter().map(|s| CorrelationId::new(&*s.correlation)).collect()
    }

    pub fn index_of(&self, correlation: &CorrelationId, partner: &str) -> Option<usize> {
        let corr_sym = self.corrs.lookup(correlation.as_str())?;
        let partner_sym = self.partners.lookup(partner)?;
        self.by_corr_partner.get(&(corr_sym, partner_sym)).map(|&slot| slot as usize)
    }

    pub fn index_of_instance(&self, id: InstanceId) -> Option<usize> {
        match self.by_instance.get(id.value() as usize) {
            Some(&slot) if slot != NO_SESSION => Some(slot as usize),
            _ => None,
        }
    }

    /// Member sessions of a correlation, in creation order (ascending).
    pub fn indices_of_correlation(
        &self,
        correlation: &CorrelationId,
    ) -> impl Iterator<Item = usize> + '_ {
        self.corrs
            .lookup(correlation.as_str())
            .and_then(|sym| self.groups.get(sym as usize))
            .map(|g| g.members.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&slot| slot as usize)
    }

    /// Aggregate state over all sessions of a correlation: Completed only
    /// when all are, Failed when any is (first failure in index order).
    pub fn aggregate_state(&self, correlation: &CorrelationId) -> SessionState {
        let group =
            self.corrs.lookup(correlation.as_str()).and_then(|sym| self.groups.get(sym as usize));
        let Some(group) = group else {
            return SessionState::InProgress;
        };
        if group.failed > 0 {
            for &slot in &group.members {
                if let SessionState::Failed(reason) = &self.states[slot as usize] {
                    return SessionState::Failed(reason.clone());
                }
            }
        }
        if group.is_complete() {
            SessionState::Completed
        } else {
            SessionState::InProgress
        }
    }

    /// Number of sessions whose correlation aggregate is Completed (O(1)).
    pub fn completed_sessions(&self) -> usize {
        self.completed_total
    }

    /// Attaches a lazily created private process to a session.
    pub fn set_private(&mut self, index: usize, id: InstanceId, backend: Option<String>) {
        self.sessions[index].backend = backend.map(|b| self.misc.intern(&b).1);
        self.sessions[index].private = Some(id);
        self.set_instance(id, index as u32);
    }

    /// Attaches a lazily created back-end binding to a session.
    pub fn set_backend_binding(&mut self, index: usize, id: InstanceId) {
        self.sessions[index].backend_binding = Some(id);
        self.set_instance(id, index as u32);
    }

    /// Records a failure. `overwrite` replaces an existing reason (wire
    /// delivery failures do); otherwise the first reason wins.
    pub fn mark_failure(&mut self, index: usize, reason: String, overwrite: bool) {
        if overwrite || self.sessions[index].failure.is_none() {
            self.sessions[index].failure = Some(reason);
        }
        let state = SessionState::Failed(self.sessions[index].failure.clone().expect("just set"));
        self.apply_state(index, state);
    }

    /// Clears a failure marker (dead-letter replay gives the session
    /// another chance) and recomputes the cached state.
    pub fn clear_failure(&mut self, index: usize, wf: &WfEngine) {
        self.sessions[index].failure = None;
        self.sessions[index].notified = false;
        self.refresh(index, wf);
        // `refresh` is a no-op when the cached state did not change, but
        // resetting `notified` alone re-arms the notification: a session
        // that is still Failed (an instance failed independently of the
        // cleared marker) must become pending again.
        if matches!(self.states[index], SessionState::Failed(_)) {
            self.pending_failed.insert(index);
        }
    }

    /// Marks a session's counterparty as informed (or not needing to be).
    pub fn set_notified(&mut self, index: usize) {
        self.sessions[index].notified = true;
        self.pending_failed.remove(&index);
    }

    /// Indices of failed sessions whose counterparty has not been told
    /// yet, in ascending index order. Maintained incrementally — reading
    /// it never scans the table.
    pub fn pending_failed(&self) -> impl Iterator<Item = usize> + '_ {
        self.pending_failed.iter().copied()
    }

    /// Recomputes one session's cached state from the WFMS.
    pub fn refresh(&mut self, index: usize, wf: &WfEngine) {
        let state = compute_state(&self.sessions[index], wf);
        self.apply_state(index, state);
    }

    /// Folds a batch of touched instances back into the caches: each
    /// owning session is recomputed exactly once.
    pub fn refresh_instances(&mut self, wf: &WfEngine, touched: &[InstanceId]) {
        let mut indices = std::mem::take(&mut self.touched_scratch);
        indices.clear();
        indices.extend(touched.iter().filter_map(|id| self.index_of_instance(*id)));
        indices.sort_unstable();
        indices.dedup();
        for &index in &indices {
            self.refresh(index, wf);
        }
        self.touched_scratch = indices;
    }

    /// Measured retained memory of the table: every slot vector, index,
    /// arena, and failure string, divided by the number of open sessions.
    /// An accounting walk over owned capacities — not an allocator
    /// estimate — so benches can report honest bytes-per-open-session.
    pub fn memory_footprint(&self) -> crate::metrics::SessionMemory {
        use std::mem::size_of;
        let failure_bytes: usize =
            self.sessions.iter().filter_map(|s| s.failure.as_ref().map(|f| f.capacity())).sum();
        let state_bytes: usize = self
            .states
            .iter()
            .filter_map(|s| match s {
                SessionState::Failed(reason) => Some(reason.capacity()),
                _ => None,
            })
            .sum();
        let bytes = self.sessions.capacity() * size_of::<Session>()
            + failure_bytes
            + self.states.capacity() * size_of::<SessionState>()
            + state_bytes
            + self.corr_syms.capacity() * size_of::<u32>()
            + self.corrs.retained_bytes()
            + self.partners.retained_bytes()
            + self.misc.retained_bytes()
            + self.by_corr_partner.capacity() * size_of::<((u32, u32), u32)>()
            + self.by_instance.capacity() * size_of::<u32>()
            + self.groups.capacity() * size_of::<Group>()
            + self.groups.iter().map(|g| g.members.capacity() * size_of::<u32>()).sum::<usize>()
            + self.pending_failed.len() * size_of::<usize>()
            + self.touched_scratch.capacity() * size_of::<usize>();
        crate::metrics::SessionMemory {
            sessions: self.sessions.len(),
            bytes,
            bytes_per_session: if self.sessions.is_empty() {
                0
            } else {
                bytes / self.sessions.len()
            },
        }
    }

    /// Swaps in a new cached state, keeping the group counters and the
    /// completed total consistent.
    fn apply_state(&mut self, index: usize, new: SessionState) {
        if self.states[index] == new {
            return;
        }
        let old = std::mem::replace(&mut self.states[index], new);
        let group = &mut self.groups[self.corr_syms[index] as usize];
        let was_complete = group.is_complete();
        match old {
            SessionState::Completed => group.completed -= 1,
            SessionState::Failed(_) => group.failed -= 1,
            SessionState::InProgress => {}
        }
        match &self.states[index] {
            SessionState::Completed => group.completed += 1,
            SessionState::Failed(_) => group.failed += 1,
            SessionState::InProgress => {}
        }
        let is_complete = group.is_complete();
        if was_complete && !is_complete {
            self.completed_total -= group.total;
        } else if !was_complete && is_complete {
            self.completed_total += group.total;
        }
        match &self.states[index] {
            SessionState::Failed(_) if !self.sessions[index].notified => {
                self.pending_failed.insert(index);
            }
            _ => {
                self.pending_failed.remove(&index);
            }
        }
    }
}

/// One session's state, read from the WFMS: Failed if marked or any
/// instance failed; Completed when every instance (including a present
/// private process) completed.
fn compute_state(session: &Session, wf: &WfEngine) -> SessionState {
    if let Some(reason) = &session.failure {
        return SessionState::Failed(reason.clone());
    }
    let instances = [session.public, session.binding]
        .into_iter()
        .chain(session.private)
        .chain(session.backend_binding);
    let mut all_complete = true;
    for id in instances {
        match wf.status(id) {
            Ok(InstanceStatus::Completed) => {}
            Ok(InstanceStatus::Failed(reason)) => return SessionState::Failed(reason),
            Ok(InstanceStatus::Running) => all_complete = false,
            Err(_) => all_complete = false,
        }
    }
    if all_complete && session.private.is_some() {
        SessionState::Completed
    } else {
        SessionState::InProgress
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session<'a>(corr: &'a str, partner: &'a str, first_instance: u64) -> NewSession<'a> {
        NewSession {
            correlation: corr,
            agreement_id: "tpa",
            role: BindingRole::Initiator,
            partner,
            public: InstanceId::new(first_instance),
            binding: InstanceId::new(first_instance + 1),
            private: Some(InstanceId::new(first_instance + 2)),
            backend: None,
        }
    }

    #[test]
    fn indexes_answer_in_constant_time_paths() {
        let mut table = SessionTable::new();
        let a = table.insert(session("c-1", "TP1", 10));
        let b = table.insert(session("c-1", "TP2", 20));
        let c = table.insert(session("c-2", "TP1", 30));
        assert_eq!(table.index_of(&CorrelationId::new("c-1"), "TP2"), Some(b));
        assert_eq!(table.index_of_instance(InstanceId::new(31)), Some(c));
        assert_eq!(
            table.indices_of_correlation(&CorrelationId::new("c-1")).collect::<Vec<_>>(),
            vec![a, b]
        );
        assert_eq!(table.index_of(&CorrelationId::new("c-9"), "TP1"), None);
    }

    #[test]
    fn interning_shares_identity_strings() {
        let mut table = SessionTable::new();
        let a = table.insert(session("c-1", "TP1", 10));
        let b = table.insert(session("c-1", "TP1", 20)); // same identity, later instances
        let c = table.insert(session("c-2", "TP1", 30));
        // One allocation per distinct string, shared via Arc.
        assert!(Arc::ptr_eq(&table.session(a).correlation, &table.session(b).correlation));
        assert!(Arc::ptr_eq(&table.session(a).partner, &table.session(c).partner));
        assert!(Arc::ptr_eq(&table.session(a).agreement_id, &table.session(c).agreement_id));
        assert!(!Arc::ptr_eq(&table.session(a).correlation, &table.session(c).correlation));
    }

    #[test]
    fn completion_counters_track_group_transitions() {
        let mut table = SessionTable::new();
        let a = table.insert(session("c-1", "TP1", 10));
        let b = table.insert(session("c-1", "TP2", 20));
        assert_eq!(table.completed_sessions(), 0);
        table.apply_state(a, SessionState::Completed);
        assert_eq!(table.completed_sessions(), 0, "half-complete group");
        table.apply_state(b, SessionState::Completed);
        assert_eq!(table.completed_sessions(), 2, "both members count");
        assert_eq!(table.aggregate_state(&CorrelationId::new("c-1")), SessionState::Completed);
        // A failure reopens the group.
        table.mark_failure(b, "boom".into(), true);
        assert_eq!(table.completed_sessions(), 0);
        assert_eq!(
            table.aggregate_state(&CorrelationId::new("c-1")),
            SessionState::Failed("boom".into())
        );
    }

    #[test]
    fn late_member_reopens_a_completed_group() {
        let mut table = SessionTable::new();
        let a = table.insert(session("c-1", "TP1", 10));
        table.apply_state(a, SessionState::Completed);
        assert_eq!(table.completed_sessions(), 1);
        table.insert(session("c-1", "TP2", 20));
        assert_eq!(table.completed_sessions(), 0);
        assert_eq!(table.aggregate_state(&CorrelationId::new("c-1")), SessionState::InProgress);
    }

    #[test]
    fn pending_failed_index_tracks_failure_and_notification() {
        let mut table = SessionTable::new();
        let a = table.insert(session("c-1", "TP1", 10));
        let b = table.insert(session("c-2", "TP2", 20));
        assert_eq!(table.pending_failed().count(), 0);
        table.mark_failure(b, "late".into(), false);
        table.mark_failure(a, "boom".into(), false);
        // Ascending index order, regardless of failure order.
        assert_eq!(table.pending_failed().collect::<Vec<_>>(), vec![a, b]);
        table.set_notified(a);
        assert_eq!(table.pending_failed().collect::<Vec<_>>(), vec![b]);
        // A completed session leaves the index.
        table.apply_state(b, SessionState::Completed);
        assert_eq!(table.pending_failed().count(), 0);
        // Re-failing an already-notified session does not re-arm it...
        table.mark_failure(a, "boom again".into(), true);
        assert_eq!(table.pending_failed().count(), 0);
    }

    #[test]
    fn memory_footprint_reports_per_session_bytes() {
        let mut table = SessionTable::new();
        assert_eq!(table.memory_footprint().bytes_per_session, 0);
        for i in 0..100u64 {
            table.insert(session(&format!("c-{i}"), "TP1", 1 + i * 3));
        }
        let memory = table.memory_footprint();
        assert_eq!(memory.sessions, 100);
        assert!(memory.bytes > 0);
        assert_eq!(memory.bytes_per_session, memory.bytes / 100);
    }
}
