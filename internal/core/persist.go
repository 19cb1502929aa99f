package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/auth"
	"repro/internal/schema"
)

// Repository persistence: the DLHub service is long-lived — published
// models must survive restarts. This file is the checkpoint CODEC: it
// serializes/restores whole repository state through the internal/store
// checkpoint hooks (writeSnapshot/restoreSnapshot). The WAL compacts
// its record tail into exactly this gob, writes it atomically as
// repository.gob, and recovery restores it before replaying the tail
// (durable.go). The format is unchanged since the removed -snapshot
// mode, so a directory that mode wrote loads as a -data-dir.

// snapshot is the serialized repository state. New fields decode as
// their zero value from older snapshots (gob skips missing fields), so
// extending it is backward compatible.
type snapshot struct {
	Docs       map[string]*schema.Document
	Versions   map[string][]*schema.Document
	Components map[string]map[string][]byte
	Placements map[string][]string
	// Replicas is the desired replica count per servable (Deploy/Scale
	// outcome) — the autoscaler's notion of current scale.
	Replicas map[string]int
	// Draining lists TMs whose drain mark must survive a restart: a
	// site mid-drain stays out of rotation when it re-registers.
	Draining []string
	// Policies are the installed autoscale policies.
	Policies map[string]AutoscalePolicy
	// Tenants and Bindings persist the tenant registry — quota specs
	// and identity→tenant mappings — so fairness policy survives a
	// restart; Users persists registered accounts (credential hashes
	// only) so operators and clients can log back in after recovery.
	// All three decode as nil from pre-tenancy snapshots.
	Tenants  []auth.Tenant
	Bindings map[string]string
	Users    map[string]userRecord
}

// captureSnapshot collects repository state for serialization. The
// catalogue costs pointers and slice headers only: installed documents
// and component maps are immutable (repository.go), so the encoder can
// read them after the lock is dropped with nothing to race. Autoscale
// policies are collected FIRST, outside the repository lock — the
// scaler's status path acquires its own lock before it, so nesting
// repository.mu → scaler.mu here would invert that order. The tenant
// registry and user table are collected outside it too (each has its
// own lock and never nests with it), with the same mutation-then-append
// guarantee as drain marks: a quota the snapshot misses still has its
// record in the tail.
//
// The routing slice (placements/replicas/draining) is captured while
// the repository lock is still held for reading: every durable routing
// mutation (recordDeployment, recordReplicas, Unpublish, replay) nests
// its routing write under that lock, so holding it read-side here gives
// the checkpoint the same repository-vs-routing consistency the
// monolithic lock did. Drain/rejoin marks mutate outside it, but each
// is logged() AFTER its in-memory mutation, and the checkpoint hook
// blocks appends — a mark the snapshot misses still has its record
// replayed from the tail.
func (s *Service) captureSnapshot() snapshot {
	snap := snapshot{Policies: s.scaler.policies(), Users: s.snapshotUsers()}
	snap.Tenants, snap.Bindings = s.tenants.Snapshot()
	s.repo.capture(&snap, func() {
		snap.Placements, snap.Replicas, snap.Draining = s.route.routeSnapshot()
	})
	return snap
}

// writeSnapshot serializes the repository to w — the store checkpoint
// hook (registered via store.SetCheckpointer). The WAL calls it with
// its own lock held while appends are blocked, so the state written
// provably includes every record about to be truncated; it must
// therefore never call store.Append (deadlock) — it only reads.
func (s *Service) writeSnapshot(w io.Writer) error {
	snap := s.captureSnapshot()
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: snapshot encode: %w", err)
	}
	return nil
}

// restoreSnapshot decodes a snapshot from r and installs it, replacing
// current repository state. Restored placements are kept verbatim — at
// the usual boot-time restore no TM has registered yet, so filtering
// here would drop every placement; instead route.pick ignores placement
// entries naming unregistered TMs at routing time, which both survives
// the boot ordering (a TM re-registering under its old ID gets its
// placements back) and never routes a request into a ghost TM's queue.
//
// The repository rebuilds its index from the restored catalogue; the
// result cache is flushed once by Recover, after the WAL tail.
func (s *Service) restoreSnapshot(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("core: snapshot decode: %w", err)
	}

	// Routing state is installed while the repository lock is still
	// held, mirroring the nesting every durable routing mutation uses
	// (see routing.go).
	s.repo.restore(&snap, func() { s.route.restore(snap.Placements, snap.Replicas, snap.Draining) })

	for id, p := range snap.Policies {
		if err := s.scaler.setPolicy(id, p); err != nil {
			// A policy that validated when set cannot fail now; guard
			// against a hand-edited snapshot without aborting the boot.
			return fmt.Errorf("core: snapshot policy %s: %w", id, err)
		}
	}
	// Tenancy & identity: tenants install before bindings (Bind would
	// otherwise auto-create a record and lose the HasQuota flag), and
	// every restored quota re-pushes its broker lane weight exactly as
	// SetTenantQuota did originally.
	for _, t := range snap.Tenants {
		s.tenants.Install(t)
		s.broker.SetLaneWeight(t.ID, auth.PriorityWeight(t.Quota.Priority))
	}
	for id, tid := range snap.Bindings {
		s.tenants.Bind(id, tid)
	}
	for _, u := range snap.Users {
		s.installUser(u)
	}
	return nil
}
