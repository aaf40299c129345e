package policy

import (
	"slices"

	"pckpt/internal/failure"
	"pckpt/internal/queue"
)

// Event aliases the failure-stream event type: the policy hooks consume
// the same events the tiers inject, without re-modelling them.
type Event = failure.Event

// Prediction is one outstanding true prediction as the lifecycle state
// tracks it.
type Prediction struct {
	Node   int
	FailAt float64
	Lead   float64
}

// Migration is one in-flight live migration. The tier schedules its
// completion callback; the state machine owns the abort flag so a p-ckpt
// episode or a failure can void it (Fig. 5).
type Migration struct {
	Ev      failure.Event
	Aborted bool
}

// Episode is a live p-ckpt episode: the lead-time priority queue of
// vulnerable nodes (used by the application-level tier; the node tier
// realises the ordering as a priority resource instead), the progress the
// episode snapshots, and its commit/abandon bookkeeping.
type Episode struct {
	Q             queue.PQ[failure.Event]
	StartProgress float64
	Committed     int
	Abandoned     bool
}

// FailureOutcome reports what FailureStruck did, for the tier's
// accounting.
type FailureOutcome struct {
	// MigrationAborted is true when the failed node died mid-migration.
	MigrationAborted bool
	// Mitigated is true when a proactive checkpoint covered this failure;
	// MitigatedAt is the PFS-recoverable progress it committed.
	Mitigated   bool
	MitigatedAt float64
}

// State is the C/R lifecycle state machine both simulation tiers share:
// fail-epoch voiding of blocked activities, BB→PFS drain generations,
// checkpoint placement, episodes, migrations, and the prediction /
// mitigation / avoidance ledgers. The tiers keep only genuinely
// tier-specific state (simulated processes, cluster membership, banked
// compute) next to it.
type State struct {
	// epoch increments on every failure. A blocking activity (BB write,
	// safeguard, episode write, recovery) that observes the epoch change
	// mid-wait is void: the state it was saving rolled back. A counter
	// (not a flag) so that nested handling — a recovery running inside
	// the interrupted activity's wait — cannot mask the abort.
	epoch int
	// rescheduled is raised when a proactive action committed a full
	// checkpoint, so the compute loop re-bases its next periodic one.
	rescheduled bool
	// pfsProgress is the newest fully PFS-resident coordinated checkpoint
	// (-1 = none yet).
	pfsProgress float64
	// drainGen / drainsInFlight: each BB write restarts the drain of the
	// newest data; superseded drains count as in flight until their
	// completion callback runs (the drain queue depth metrics track).
	drainGen       int
	drainsInFlight int

	// pfsGens retains the progress values of superseded PFS-resident
	// generations (ascending, newest last, capped at maxPFSGens), so a
	// restart on a degraded platform can fall back past a corrupt newest
	// generation instead of losing everything.
	pfsGens []float64
	// corruptGens marks committed checkpoint generations (keyed by their
	// progress value) that the platform silently tore at commit time. The
	// marks are invisible to the running job — they are consulted, and the
	// damage discovered, only inside ResolveRestart. Nil unless fault
	// injection marks something.
	corruptGens map[float64]bool

	predicted   map[int64]Prediction // outstanding true predictions
	mitigatedAt map[int64]float64    // failure ID → PFS-recoverable progress
	avoided     map[int64]bool       // failure IDs neutralised by LM
	migrations  map[int]*Migration   // node → in-flight migration
	episode     *Episode             // &ep while a p-ckpt episode runs, else nil

	// Storage reused across episodes, migrations and Resets: at most one
	// episode is live, a migration record is free again once
	// FinishMigration has read it, and AbortMigrations sorts in order.
	ep       Episode
	migFree  []*Migration
	abortBuf []int
}

// maxPFSGens caps the retained superseded-generation history. Eight
// generations of fallback is far beyond any plausible corruption streak;
// the cap keeps State allocation bounded on long runs.
const maxPFSGens = 8

// NewState returns the start-of-run lifecycle state.
func NewState() *State {
	s := new(State)
	s.Reset()
	return s
}

// Reset returns s to the start-of-run state in place: its maps are
// cleared, not reallocated, and its episode and migration records are
// kept for reuse, so a recycled run record starts a run without
// allocating one. A migration still in flight is dropped with its
// record.
func (s *State) Reset() {
	if s.predicted == nil {
		s.predicted = make(map[int64]Prediction)
		s.mitigatedAt = make(map[int64]float64)
		s.avoided = make(map[int64]bool)
		s.migrations = make(map[int]*Migration)
	}
	clear(s.predicted)
	clear(s.mitigatedAt)
	clear(s.avoided)
	clear(s.migrations)
	clear(s.corruptGens)
	s.epoch, s.rescheduled, s.pfsProgress = 0, false, -1
	s.drainGen, s.drainsInFlight = 0, 0
	s.pfsGens = s.pfsGens[:0]
	s.episode = nil
	s.ep.Q.Clear()
	s.ep = Episode{Q: s.ep.Q}
}

// Epoch returns the current fail epoch. Blocking activities snapshot it
// before waiting and treat a change as "this activity is void".
func (s *State) Epoch() int { return s.epoch }

// RecordPrediction records an outstanding true prediction.
func (s *State) RecordPrediction(id int64, p Prediction) { s.predicted[id] = p }

// ForgetPrediction drops a prediction (failure struck, or LM avoided it).
func (s *State) ForgetPrediction(id int64) { delete(s.predicted, id) }

// EachPrediction visits every outstanding prediction (M1's safeguard
// marks all those whose failure has not struck yet as mitigated).
func (s *State) EachPrediction(fn func(id int64, p Prediction)) {
	for id, p := range s.predicted {
		fn(id, p)
	}
}

// Migrating reports whether node has a migration in flight.
func (s *State) Migrating(node int) bool { return s.migrations[node] != nil }

// StartMigration registers an in-flight migration for ev's node and
// returns its handle (the tier schedules the completion callback).
func (s *State) StartMigration(ev failure.Event) *Migration {
	var m *Migration
	if n := len(s.migFree); n > 0 {
		m = s.migFree[n-1]
		s.migFree = s.migFree[:n-1]
		*m = Migration{Ev: ev}
	} else {
		m = &Migration{Ev: ev}
	}
	s.migrations[ev.Node] = m
	return m
}

// FinishMigration completes a migration at its scheduled time: it
// reports false if the migration was aborted meanwhile, otherwise it
// deregisters it and reports true (the tier then credits the avoidance).
// Either way the handle is spent: its record goes back for reuse, so
// the tier must not read m afterwards.
func (s *State) FinishMigration(m *Migration) bool {
	aborted := m.Aborted
	if !aborted {
		delete(s.migrations, m.Ev.Node)
	}
	s.migFree = append(s.migFree, m)
	return !aborted
}

// AbortMigrations cancels every in-flight migration (a p-ckpt request
// supersedes them per the Fig. 5 state diagram), invoking each for every
// cancelled migration's originating event so the tier can account the
// abort and requeue the node as vulnerable. Visits are in ascending node
// order — not map order — so the requeue order (and with it trace
// timelines and deadline-tie resolution) is identical on every tier and
// every run.
func (s *State) AbortMigrations(each func(ev failure.Event)) {
	nodes := s.abortBuf[:0]
	for node := range s.migrations {
		nodes = append(nodes, node)
	}
	slices.Sort(nodes)
	s.abortBuf = nodes
	for _, node := range nodes {
		m := s.migrations[node]
		m.Aborted = true
		delete(s.migrations, node)
		each(m.Ev)
	}
}

// BeginEpisode opens a p-ckpt episode snapshotting the given progress.
// Episodes never overlap, so each reuses one record (and its queue's
// storage): the handle is valid until EndEpisode.
func (s *State) BeginEpisode(progress float64) *Episode {
	s.ep.Q.Clear()
	s.ep = Episode{Q: s.ep.Q, StartProgress: progress}
	s.episode = &s.ep
	return s.episode
}

// Episode returns the live episode, or nil.
func (s *State) Episode() *Episode { return s.episode }

// EndEpisode closes the live episode (deferred by the tier's episode
// runner, completed or abandoned alike).
func (s *State) EndEpisode() { s.episode = nil }

// MarkAvoided records that a completed live migration neutralised the
// failure with this ID; the injector will swallow it.
func (s *State) MarkAvoided(id int64) { s.avoided[id] = true }

// ConsumeAvoided reports and clears the avoidance mark for a failure.
func (s *State) ConsumeAvoided(id int64) bool {
	if !s.avoided[id] {
		return false
	}
	delete(s.avoided, id)
	return true
}

// Mitigate records that a proactive checkpoint committed the state at
// progress before the predicted failure with this ID struck.
func (s *State) Mitigate(id int64, progress float64) { s.mitigatedAt[id] = progress }

// FailureStruck applies the model-independent failure transition: the
// prediction ledger forgets the failure, the node's in-flight migration
// (if any) aborts, the live episode (if any) is abandoned, the fail
// epoch advances (voiding every blocked activity), and the mitigation —
// if one covered this failure — is taken exactly once.
func (s *State) FailureStruck(ev failure.Event) FailureOutcome {
	var out FailureOutcome
	delete(s.predicted, ev.ID)
	if m := s.migrations[ev.Node]; m != nil {
		// The node died mid-migration (only possible for a second,
		// unpredicted failure, or an under-lead race): the migration is
		// void.
		m.Aborted = true
		delete(s.migrations, ev.Node)
		out.MigrationAborted = true
	}
	if s.episode != nil {
		s.episode.Abandoned = true
	}
	s.epoch++
	if q, ok := s.mitigatedAt[ev.ID]; ok {
		delete(s.mitigatedAt, ev.ID)
		out.Mitigated, out.MitigatedAt = true, q
	}
	return out
}

// BeginDrain starts the asynchronous BB→PFS drain of the newest
// coordinated checkpoint, superseding any drain still in flight. It
// returns the new drain generation and the updated in-flight depth.
func (s *State) BeginDrain() (gen, depth int) {
	s.drainGen++
	s.drainsInFlight++
	return s.drainGen, s.drainsInFlight
}

// FinishDrain completes a drain at its scheduled time, returning the
// updated depth and whether the drain is still current (a newer BB write
// supersedes older drains; each write restarts the drain of the newest
// data).
func (s *State) FinishDrain(gen int) (depth int, current bool) {
	s.drainsInFlight--
	return s.drainsInFlight, gen == s.drainGen
}

// CommitPFS records a full-application checkpoint at progress as
// PFS-resident, if it is newer than the one already there; it reports
// whether the placement advanced. The superseded generation is retained
// (capped) so ResolveRestart can fall back to it if the newer one turns
// out corrupt.
func (s *State) CommitPFS(progress float64) bool {
	if progress > s.pfsProgress {
		if s.pfsProgress >= 0 {
			switch {
			case s.pfsGens == nil:
				s.pfsGens = make([]float64, 0, maxPFSGens)
			case len(s.pfsGens) == maxPFSGens:
				// Shift the full window in place: reslicing off the front
				// would shed capacity and reallocate on every later commit.
				copy(s.pfsGens, s.pfsGens[1:])
				s.pfsGens = s.pfsGens[:maxPFSGens-1]
			}
			s.pfsGens = append(s.pfsGens, s.pfsProgress)
		}
		s.pfsProgress = progress
		return true
	}
	return false
}

// PFSProgress returns the newest PFS-resident progress (-1 = none).
func (s *State) PFSProgress() float64 { return s.pfsProgress }

// MarkRescheduled raises the adaptive-schedule flag after a proactive
// full-PFS commit.
func (s *State) MarkRescheduled() { s.rescheduled = true }

// TakeRescheduled reports and clears the adaptive-schedule flag.
func (s *State) TakeRescheduled() bool {
	r := s.rescheduled
	s.rescheduled = false
	return r
}

// MarkCorrupt records that the committed checkpoint generation at
// progress was silently torn by the platform (fault injection draws this
// at commit time). The running job cannot see the mark; only
// ResolveRestart consults it.
func (s *State) MarkCorrupt(progress float64) {
	if s.corruptGens == nil {
		s.corruptGens = make(map[float64]bool)
	}
	s.corruptGens[progress] = true
}

// RetainedPFSGenerations returns how many superseded PFS generations are
// retained as fallback candidates. Restarts read the generations, not
// their count; TestCommitPFSRetentionCap and the corrupt-generation
// ResolveRestart tests read it to check the retention cap and that a
// corrupt generation is dropped.
func (s *State) RetainedPFSGenerations() int { return len(s.pfsGens) }

// dropGeneration discards a checkpoint generation discovered corrupt: if
// it was the newest PFS placement, the newest retained older generation
// takes its place (or none remains); otherwise it is removed from the
// retained history. The corruption mark is consumed with it.
func (s *State) dropGeneration(progress float64) {
	delete(s.corruptGens, progress)
	if progress == s.pfsProgress {
		if n := len(s.pfsGens); n > 0 {
			s.pfsProgress = s.pfsGens[n-1]
			s.pfsGens = s.pfsGens[:n-1]
		} else {
			s.pfsProgress = -1
		}
		return
	}
	for i := len(s.pfsGens) - 1; i >= 0; i-- {
		if s.pfsGens[i] == progress {
			s.pfsGens = append(s.pfsGens[:i], s.pfsGens[i+1:]...)
			return
		}
	}
}

// newestGenBelow returns the newest PFS-resident generation strictly
// older than progress — the current placement or a retained one — or -1
// if none remains. (The tier's candidate q can be a newer BB-resident
// generation, in which case the newest PFS placement is itself a
// fallback candidate.)
func (s *State) newestGenBelow(progress float64) float64 {
	best := -1.0
	if s.pfsProgress < progress {
		best = s.pfsProgress
	}
	for _, g := range s.pfsGens {
		if g < progress && g > best {
			best = g
		}
	}
	return best
}

// BestRestart resolves the restart point after a failure: the proactive
// commit that mitigated it, or the tier's newest consistent checkpoint
// progress q — whichever is fresher. It returns the restart progress
// (clamped to 0: no checkpoint yet restarts from the beginning) and
// whether recovery restores every node from the PFS (the mitigated path,
// Sec. II) rather than the BB-assisted path. Every tier restarts through
// ResolveRestart; BestRestart is the clean-platform rule it must reduce
// to, the oracle of TestResolveRestartMatchesBestRestartWithoutCorruption.
func BestRestart(q float64, out FailureOutcome) (progress float64, fromPFS bool) {
	if out.Mitigated && out.MitigatedAt >= q {
		q = out.MitigatedAt
		fromPFS = true
	}
	if q < 0 {
		q = 0
	}
	return q, fromPFS
}

// ResolveRestart is BestRestart on a possibly-degraded platform: it
// walks the restart candidates newest-first — the mitigated proactive
// commit when it covers q, then the tier's checkpoint at q, then the
// retained older PFS generations — discarding every candidate whose
// generation carries a silent-corruption mark. Each discarded candidate
// is a restore attempt that read a torn checkpoint (the tier charges it
// as recovery time); discovered-corrupt generations are dropped from the
// state so no later restart tries them again. Restarting from the
// beginning needs no checkpoint and always succeeds. With no corruption
// marks the result is exactly BestRestart's.
func (s *State) ResolveRestart(q float64, out FailureOutcome) (progress float64, fromPFS bool, corrupted int) {
	if out.Mitigated && out.MitigatedAt >= q {
		if !s.corruptGens[out.MitigatedAt] {
			p := out.MitigatedAt
			if p < 0 {
				p = 0
			}
			return p, true, corrupted
		}
		corrupted++
		s.dropGeneration(out.MitigatedAt)
	}
	if q >= 0 {
		if !s.corruptGens[q] {
			return q, false, corrupted
		}
		corrupted++
		s.dropGeneration(q)
		for {
			g := s.newestGenBelow(q)
			if g < 0 {
				break
			}
			if !s.corruptGens[g] {
				return g, true, corrupted
			}
			corrupted++
			s.dropGeneration(g)
		}
	}
	return 0, false, corrupted
}
