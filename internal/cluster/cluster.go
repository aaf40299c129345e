// Package cluster tracks the simulated machine: the job's compute nodes
// with their health state and the checkpoint data resident on each
// node-local burst buffer and on the PFS, plus the reserved spare-node
// pool the resource manager draws replacements from (the paper assumes
// the recovery rate of failed nodes keeps spares available; the pool
// makes that assumption checkable).
package cluster

import "fmt"

// State is a node's health state, following the paper's Fig. 5.
type State uint8

const (
	// Healthy: normal computation and periodic checkpointing.
	Healthy State = iota
	// Vulnerable: a failure has been predicted for this node.
	Vulnerable
	// Migrating: the node's process is being live-migrated away.
	Migrating
	// Failed: the node failed and awaits replacement.
	Failed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Vulnerable:
		return "vulnerable"
	case Migrating:
		return "migrating"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Node is one job node's health bookkeeping. Its checkpoint records live
// in the cluster's ledger; read them with (*Cluster).BBProgress and
// PFSProgress.
type Node struct {
	// ID is the job-local node index.
	ID int
	// State is the current health state.
	State State
	// PredictedFailAt is the predicted failure time while Vulnerable or
	// Migrating; zero otherwise.
	PredictedFailAt float64
	// Replacements counts how many times this logical rank has been
	// re-hosted on a spare after failures.
	Replacements int
}

// Observer receives node state transitions as they happen, letting a
// metrics layer track populations (vulnerable nodes, failed nodes) over
// simulation time without the cluster knowing about clocks or metric
// names. A nil observer costs one predictable branch per transition.
type Observer func(id int, from, to State)

// Checkpoint tiers, indexing the ledger's per-tier arrays.
const (
	tierBB  = 0 // node-local burst buffer
	tierPFS = 1 // parallel file system
)

// divergence is one node's entry in the checkpoint ledger. For each tier
// t, a node with owns[t] holds its own record val[t]; otherwise it holds
// the cluster's coordinated record for that tier.
type divergence struct {
	id   int
	owns [2]bool
	val  [2]float64
}

// Cluster is the job's node set plus the spare pool.
//
// Checkpoint records are kept as a generation ledger: coord holds the
// progress captured by the newest coordinated BB stage and PFS commit,
// which every node holds unless it has diverged (failed, been replaced,
// committed individually, or failed before a coordinated checkpoint
// skipped it). Only diverged nodes have an entry in diverged, so the
// coordinated calls cost O(diverged nodes) rather than O(nodes).
type Cluster struct {
	nodes []Node
	// touched lists the nodes changed since the last Reset, and dirty
	// marks them, so Reset restores only those: every node of the
	// backing array outside touched is already Node{ID: i}.
	touched  []int
	dirty    []bool
	coord    [2]float64
	diverged []divergence
	spares   int
	used     int
	// atRisk counts the Vulnerable and Migrating nodes, kept by setState.
	atRisk   int
	observer Observer
}

// SetObserver installs the state-transition observer (nil to remove).
func (c *Cluster) SetObserver(o Observer) { c.observer = o }

// touch notes that node n is about to change, so the next Reset
// restores it.
func (c *Cluster) touch(n *Node) {
	if !c.dirty[n.ID] {
		c.dirty[n.ID] = true
		c.touched = append(c.touched, n.ID)
	}
}

// setState applies a transition, keeps the at-risk count, and notifies
// the observer on change.
func (c *Cluster) setState(n *Node, to State) {
	from := n.State
	if from == to {
		return
	}
	c.touch(n)
	n.State = to
	if isAtRisk(from) {
		c.atRisk--
	}
	if isAtRisk(to) {
		c.atRisk++
	}
	if c.observer != nil {
		c.observer(n.ID, from, to)
	}
}

// isAtRisk reports whether a node in state s has a predicted failure
// pending: Vulnerable, or Migrating away from it.
func isAtRisk(s State) bool { return s == Vulnerable || s == Migrating }

// New builds a cluster of n job nodes backed by spares reserve nodes.
func New(n, spares int) *Cluster {
	c := new(Cluster)
	c.Reset(n, spares)
	return c
}

// Reset makes c a fresh cluster of n job nodes backed by spares reserve
// nodes, indistinguishable from New(n, spares) (the observer is removed
// too), reusing c's buffers where they are large enough. A sweep that
// recycles one cluster across runs allocates no node table per run, and
// pays only for the nodes the previous run changed: the rest of the
// table is still fresh.
func (c *Cluster) Reset(n, spares int) {
	if n <= 0 {
		panic("cluster: non-positive node count")
	}
	if spares < 0 {
		panic("cluster: negative spare count")
	}
	if cap(c.nodes) < n {
		c.nodes = make([]Node, n)
		for i := range c.nodes {
			c.nodes[i] = Node{ID: i}
		}
		c.dirty = make([]bool, n)
		c.touched = make([]int, 0, 8)
	}
	nodes, dirty := c.nodes[:cap(c.nodes)], c.dirty[:cap(c.dirty)]
	for _, id := range c.touched {
		nodes[id] = Node{ID: id}
		dirty[id] = false
	}
	c.touched = c.touched[:0]
	c.nodes, c.dirty = nodes[:n], dirty[:n]
	c.coord = [2]float64{-1, -1}
	if c.diverged == nil {
		c.diverged = make([]divergence, 0, 8)
	}
	c.diverged = c.diverged[:0]
	c.spares, c.used, c.atRisk, c.observer = spares, 0, 0, nil
}

// Node returns a snapshot of node id. Mutate nodes through the Cluster's
// methods, which keep the observer and the checkpoint ledger in step.
func (c *Cluster) Node(id int) Node { return *c.node(id) }

// node returns a pointer to node id, panicking when id is out of range.
func (c *Cluster) node(id int) *Node {
	if id < 0 || id >= len(c.nodes) {
		panic(fmt.Sprintf("cluster: node %d out of range [0, %d)", id, len(c.nodes)))
	}
	return &c.nodes[id]
}

// SparesLeft returns how many reserve nodes remain.
func (c *Cluster) SparesLeft() int { return c.spares - c.used }

// MarkVulnerable transitions a node to Vulnerable with the given
// predicted failure time. A vulnerable or migrating node may be re-marked
// (a newer prediction supersedes); a failed node may not. A migrating
// node keeps its Migrating state — the in-flight migration still owns the
// node, only the deadline is refreshed — so no observer notification
// fires for it. Use AbortMigration to tear the migration down first when
// the superseding prediction should re-queue the node.
func (c *Cluster) MarkVulnerable(id int, failAt float64) error {
	n := c.node(id)
	if n.State == Failed {
		return fmt.Errorf("cluster: node %d is failed, cannot mark vulnerable", id)
	}
	if n.State != Migrating {
		c.setState(n, Vulnerable)
	}
	c.touch(n)
	n.PredictedFailAt = failAt
	return nil
}

// MarkMigrating transitions a vulnerable node to Migrating.
func (c *Cluster) MarkMigrating(id int) error {
	n := c.node(id)
	if n.State != Vulnerable {
		return fmt.Errorf("cluster: node %d is %v, cannot start migration", id, n.State)
	}
	c.setState(n, Migrating)
	return nil
}

// AbortMigration tears down an in-flight migration: the node returns to
// Vulnerable with the given predicted failure time (the superseding
// prediction's deadline), ready to be re-queued by the episode drain.
func (c *Cluster) AbortMigration(id int, failAt float64) error {
	n := c.node(id)
	if n.State != Migrating {
		return fmt.Errorf("cluster: node %d is %v, no migration to abort", id, n.State)
	}
	c.setState(n, Vulnerable)
	n.PredictedFailAt = failAt
	return nil
}

// MarkHealthy returns a node to Healthy (prediction resolved: the failure
// was avoided, mitigated, or turned out spurious).
func (c *Cluster) MarkHealthy(id int) {
	n := c.node(id)
	if n.State == Failed {
		panic(fmt.Sprintf("cluster: node %d is failed; use Replace", id))
	}
	c.setState(n, Healthy)
	n.PredictedFailAt = 0
}

// Fail records a node failure. The node keeps its Failed state until
// Replace is called.
func (c *Cluster) Fail(id int) {
	n := c.node(id)
	c.setState(n, Failed)
	n.PredictedFailAt = 0
	// The node's burst buffer dies with it: its staged checkpoint is
	// gone. The PFS copy survives.
	c.record(id, tierBB, -1)
}

// Replace swaps a failed node for a spare: the logical rank becomes a
// fresh healthy node with an empty burst buffer. It reports an error when
// the spare pool is exhausted.
func (c *Cluster) Replace(id int) error {
	n := c.node(id)
	if n.State != Failed {
		return fmt.Errorf("cluster: node %d is %v, not failed", id, n.State)
	}
	if c.SparesLeft() <= 0 {
		return fmt.Errorf("cluster: spare pool exhausted replacing node %d", id)
	}
	c.used++
	c.setState(n, Healthy)
	n.Replacements++
	c.record(id, tierBB, -1)
	return nil
}

// BBProgress returns the application progress (simulated seconds of
// computation) captured by the newest checkpoint on node id's burst
// buffer; negative means none. The simulator reads only the restart
// point (RecoverableProgress); TestLedgerMatchesReference reads each
// node's BB copy to check the ledger against its reference model.
func (c *Cluster) BBProgress(id int) float64 { return c.progress(id, tierBB) }

// PFSProgress returns the progress captured by node id's newest
// checkpoint committed to the PFS; negative means none.
func (c *Cluster) PFSProgress(id int) float64 { return c.progress(id, tierPFS) }

// RecordBBCheckpoint notes that node id staged a checkpoint capturing the
// given application progress on its burst buffer. The simulator stages
// job-wide (RecordBBCheckpointAll); TestLedgerMatchesReference stages
// single nodes to drive per-node divergence in the ledger.
func (c *Cluster) RecordBBCheckpoint(id int, progress float64) {
	c.node(id) // panics on an out-of-range id
	c.record(id, tierBB, progress)
}

// RecordPFSCheckpoint notes that node id committed a checkpoint capturing
// the given progress to the PFS.
func (c *Cluster) RecordPFSCheckpoint(id int, progress float64) {
	c.node(id) // panics on an out-of-range id
	c.record(id, tierPFS, progress)
}

// RecordBBCheckpointAll stages a checkpoint on every non-failed node.
func (c *Cluster) RecordBBCheckpointAll(progress float64) { c.recordAll(tierBB, progress) }

// RecordPFSCheckpointAll commits a checkpoint for every non-failed node.
func (c *Cluster) RecordPFSCheckpointAll(progress float64) { c.recordAll(tierPFS, progress) }

// ClampCheckpoints discards every checkpoint record newer than progress,
// on every node. A degraded-platform restart that found the newer
// generations corrupt calls this so no later recovery tries them again.
func (c *Cluster) ClampCheckpoints(progress float64) {
	for t := range c.coord {
		if c.coord[t] > progress {
			c.coord[t] = progress
		}
	}
	for i := range c.diverged {
		d := &c.diverged[i]
		for t := range d.val {
			if d.owns[t] && d.val[t] > progress {
				d.val[t] = progress
			}
		}
	}
}

// lookup returns node id's ledger entry, or nil when the node holds the
// coordinated records on both tiers.
func (c *Cluster) lookup(id int) *divergence {
	for i := range c.diverged {
		if c.diverged[i].id == id {
			return &c.diverged[i]
		}
	}
	return nil
}

// progress returns node id's record on tier t.
func (c *Cluster) progress(id, t int) float64 {
	c.node(id) // panics on an out-of-range id
	return c.held(c.lookup(id), t)
}

// held returns the tier-t record of the node with ledger entry d (nil for
// a node without one).
func (c *Cluster) held(d *divergence, t int) float64 {
	if d != nil && d.owns[t] {
		return d.val[t]
	}
	return c.coord[t]
}

// record gives node id its own tier-t record, adding a ledger entry when
// the node has none.
func (c *Cluster) record(id, t int, progress float64) {
	d := c.lookup(id)
	if d == nil {
		c.diverged = append(c.diverged, divergence{id: id})
		d = &c.diverged[len(c.diverged)-1]
	}
	d.owns[t] = true
	d.val[t] = progress
}

// recordAll advances the coordinated tier-t record to progress. Failed
// nodes are skipped, so each keeps the record it held; every other
// diverged node rejoins the coordinated record on tier t, and entries
// left owning neither tier are dropped.
func (c *Cluster) recordAll(t int, progress float64) {
	kept := c.diverged[:0]
	for _, d := range c.diverged {
		if c.nodes[d.id].State == Failed {
			if !d.owns[t] {
				d.owns[t] = true
				d.val[t] = c.coord[t]
			}
		} else {
			d.owns[t] = false
		}
		if d.owns[tierBB] || d.owns[tierPFS] {
			kept = append(kept, d)
		}
	}
	c.diverged = kept
	c.coord[t] = progress
}

// AtRisk returns how many nodes are Vulnerable or Migrating: the width a
// p-ckpt episode opens against, and the vulnerable-node gauge's value.
// It is a count kept on every transition, so reading it costs O(1).
func (c *Cluster) AtRisk() int { return c.atRisk }

// CountState returns how many nodes are in the given state. It is the
// oracle TestStateMachineQuick checks AtRisk against.
func (c *Cluster) CountState(s State) int {
	count := 0
	for i := range c.nodes {
		if c.nodes[i].State == s {
			count++
		}
	}
	return count
}

// RecoverableProgress returns the newest application progress the whole
// job can restart from after an unhandled failure of node failedID: every
// healthy node restores from its burst buffer, the replacement restores
// from the PFS, so recovery is bounded by the failed node's PFS copy and
// the healthy nodes' BB copies. A negative result means no consistent
// restart point exists (restart from the beginning).
//
// The paper's checkpoint model keeps all nodes' checkpoints aligned (all
// nodes save state together), so in practice the minimum is the last
// completed coordinated checkpoint that also finished draining for the
// failed node. The ledger makes that cheap: the diverged entries are
// folded one by one, and the coordinated generation once for all the
// other nodes, so the cost is O(diverged nodes).
func (c *Cluster) RecoverableProgress(failedID int) float64 {
	min := c.PFSProgress(failedID)
	// Nodes holding the coordinated records on both tiers, failedID
	// excluded.
	shared := len(c.nodes) - len(c.diverged)
	if c.lookup(failedID) == nil {
		shared--
	}
	for i := range c.diverged {
		d := &c.diverged[i]
		if d.id == failedID {
			continue
		}
		min = lowerRestart(min, c.held(d, tierBB), c.held(d, tierPFS))
	}
	if shared > 0 {
		min = lowerRestart(min, c.coord[tierBB], c.coord[tierPFS])
	}
	return min
}

// lowerRestart folds one surviving node into a recovery minimum: the
// node restores from the newer of its BB and PFS records.
func lowerRestart(min, bb, pfs float64) float64 {
	p := bb
	if pfs > p {
		p = pfs
	}
	if p < min {
		return p
	}
	return min
}
