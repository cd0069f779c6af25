// Package autopilot grows, drains and heals a running HEPnOS deployment
// without stopping ingest — the control-plane half of live rebalancing
// (DESIGN.md §18). It layers three pieces over the data-plane migration
// primitives in internal/core:
//
//   - Migrator: a crash-safe state machine driving one migration through
//     plan → copy → verify → commit → retire, each step idempotent and
//     retried under an internal/resilience budget, with clean rollback
//     (abort) when a step fails terminally before commit;
//   - Cluster: the topology controller that boots new servers (Grow) or
//     evacuates trailing ones (Drain), bumping the membership epoch and
//     handing the resulting target view to the Migrator;
//   - Decide/Observer: the metrics loop that scrapes per-database service
//     time and pool saturation over the admin fabric and turns them into
//     grow/drain/hold actions.
package autopilot

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/core"
	"github.com/hep-on-hpc/hepnos-go/internal/resilience"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
)

// Phase names, in lifecycle order. They appear verbatim in the admin
// rebalance RPC payload (bedrock.RebalanceStatus.Phase).
const (
	PhaseIdle    = "idle"
	PhasePlan    = "plan"
	PhaseCopy    = "copy"
	PhaseVerify  = "verify"
	PhaseCommit  = "commit"
	PhaseRetire  = "retire"
	PhaseAborted = "aborted"
	PhaseDone    = "done"
)

// ErrVerifyDiverged reports a verify pass that kept finding missing target
// copies after every allowed round — the target is not converging, so the
// migration aborts rather than committing an incomplete image.
var ErrVerifyDiverged = xerr.Sentinel("autopilot/verify_diverged", xerr.ClassUnavailable,
	"autopilot: migration verify did not converge")

// verifyRounds bounds the verify-repair loop: each round re-walks the
// source and repairs missing target copies; the loop ends early the first
// time nothing needed repair.
const verifyRounds = 3

// Migrator drives one live migration through the state machine. Every step
// delegates to an idempotent core primitive, so a retry after any failure
// (including a process crash and restart with the same target view) resumes
// where the previous attempt left off: copies already landed are skipped by
// the verify pass, a re-begun window is detected, and a second commit of
// the same view is rejected harmlessly.
type Migrator struct {
	// DS is the serving datastore whose view is being migrated.
	DS *core.DataStore
	// Policy budgets the per-step retries (default resilience.Default()).
	Policy *resilience.Policy
	// OnPhase, when non-nil, observes every state transition — the chaos
	// tests use it to kill destinations and cut partitions at exact points
	// of the lifecycle.
	OnPhase func(phase string)
	// OnCopyRange, when non-nil, observes copy progress per (role,
	// database) source range, forwarded from core.CopyToView.
	OnCopyRange func(role string, done, total int)

	phase       atomic.Value // string
	active      atomic.Bool
	rangesTotal atomic.Int64
	rangesMoved atomic.Int64
	keysCopied  atomic.Int64
	lastErr     atomic.Value // string
}

// Status snapshots the migrator for the admin rebalance RPC. Safe to call
// concurrently with Run.
func (m *Migrator) Status() bedrock.RebalanceStatus {
	phase, _ := m.phase.Load().(string)
	if phase == "" {
		phase = PhaseIdle
	}
	lastErr, _ := m.lastErr.Load().(string)
	return bedrock.RebalanceStatus{
		Active:      m.active.Load(),
		Phase:       phase,
		Epoch:       m.DS.GroupEpoch(),
		RangesTotal: m.rangesTotal.Load(),
		RangesMoved: m.rangesMoved.Load(),
		KeysCopied:  m.keysCopied.Load(),
		LastError:   lastErr,
	}
}

// Attach points every server of the deployment at this migrator's status,
// so `hepnos-metrics` (and any admin scraper) sees live progress.
func (m *Migrator) Attach(d *bedrock.Deployment) {
	for _, s := range d.Servers {
		s.AttachRebalanceView(m.Status)
	}
}

func (m *Migrator) setPhase(phase string) {
	m.phase.Store(phase)
	if m.OnPhase != nil {
		m.OnPhase(phase)
	}
}

func (m *Migrator) policy() *resilience.Policy {
	if m.Policy != nil {
		return m.Policy
	}
	return resilience.Default()
}

func (m *Migrator) onRange(role string, done, total int) {
	m.rangesTotal.Store(int64(total))
	m.rangesMoved.Store(int64(done))
	if m.OnCopyRange != nil {
		m.OnCopyRange(role, done, total)
	}
}

// Run executes the full state machine toward target. On any terminal
// pre-commit failure it aborts the migration window (rollback: the
// committed view stays authoritative, copies on the target are inert) and
// returns the step's error. A failure after commit leaves the window open —
// the outgoing view keeps serving as the dual-read fallback — and the
// caller retries Retire. A retried Run resumes by *epoch*, not pointer
// identity: a re-discovered target view on the same membership epoch picks
// an open pre-commit window back up at copy, and a target whose epoch is
// already committed skips straight to the pending retire.
func (m *Migrator) Run(ctx context.Context, target *core.View) error {
	m.active.Store(true)
	m.lastErr.Store("")
	m.rangesMoved.Store(0)
	m.keysCopied.Store(0)
	defer m.active.Store(false)

	m.setPhase(PhasePlan)
	m.rangesTotal.Store(int64(m.DS.MigrationRangeCount()))
	if err := m.DS.BeginMigration(target); err != nil {
		alt := m.DS.AltView()
		switch {
		case errors.Is(err, core.ErrMigrationActive) && alt != nil &&
			alt.Group.Epoch == target.Group.Epoch && target.Group.Epoch > m.DS.GroupEpoch():
			// Resuming after a crash: a pre-commit window is already open on
			// a target carrying this very epoch. Adopt the open window's view
			// (a re-discovered target is a different pointer to the same
			// view, and commit checks identity) and fall through to copy.
			target = alt
		case errors.Is(err, core.ErrMigrationActive) && m.DS.GroupEpoch() == target.Group.Epoch:
			// The previous attempt failed between commit and retire: the
			// target's epoch is already authoritative, only cleanup remains.
			return m.runRetire(ctx)
		default:
			return m.fail(err, false)
		}
	}

	m.setPhase(PhaseCopy)
	err := m.policy().Run(ctx, "autopilot:copy", func(ctx context.Context) error {
		st, cerr := m.DS.CopyToView(ctx, target, m.onRange)
		m.keysCopied.Store(int64(st.TotalCopied()))
		return cerr
	})
	if err != nil {
		return m.fail(fmt.Errorf("autopilot: copy: %w", err), true)
	}

	m.setPhase(PhaseVerify)
	converged := false
	for round := 0; round < verifyRounds && !converged; round++ {
		err = m.policy().Run(ctx, "autopilot:verify", func(ctx context.Context) error {
			_, repaired, verr := m.DS.VerifyView(ctx, target)
			if verr == nil && repaired == 0 {
				converged = true
			}
			return verr
		})
		if err != nil {
			return m.fail(fmt.Errorf("autopilot: verify: %w", err), true)
		}
	}
	if !converged {
		return m.fail(ErrVerifyDiverged, true)
	}

	m.setPhase(PhaseCommit)
	if err := m.DS.CommitMigration(target); err != nil {
		return m.fail(fmt.Errorf("autopilot: commit: %w", err), true)
	}

	return m.runRetire(ctx)
}

// runRetire is the post-commit tail of Run. Past the point of no return:
// the new view is committed, only the cleanup is pending, so a failure is
// reported without aborting — Retire is idempotent and the caller (or
// Cluster.FinishRetire) retries it.
func (m *Migrator) runRetire(ctx context.Context) error {
	m.setPhase(PhaseRetire)
	if err := m.Retire(ctx); err != nil {
		m.lastErr.Store(err.Error())
		return fmt.Errorf("autopilot: retire: %w", err)
	}

	m.setPhase(PhaseDone)
	return nil
}

// Retire closes a committed migration window (idempotent; retried under the
// policy). Exposed so a caller can finish a Run that failed post-commit.
func (m *Migrator) Retire(ctx context.Context) error {
	return m.policy().Run(ctx, "autopilot:retire", func(ctx context.Context) error {
		_, err := m.DS.RetireView(ctx)
		if errors.Is(err, core.ErrNoMigration) {
			return nil // a previous attempt already closed the window
		}
		return err
	})
}

// fail records err, optionally rolls the open window back, and enters the
// aborted phase.
func (m *Migrator) fail(err error, abort bool) error {
	m.lastErr.Store(err.Error())
	if abort {
		if aerr := m.DS.AbortMigration(); aerr != nil && !errors.Is(aerr, core.ErrNoMigration) {
			err = fmt.Errorf("%w (abort: %v)", err, aerr)
		}
	}
	m.setPhase(PhaseAborted)
	return err
}
