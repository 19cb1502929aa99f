package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/auth"
	"repro/internal/schema"
	"repro/internal/store"
)

// Repository persistence: the DLHub service is long-lived — published
// models must survive restarts. The WAL compacts its record tail into a
// checkpoint, and this file writes that checkpoint: every durable fact as
// the record that would have created it (the taxonomy in durable.go), so
// recovery reads the checkpoint with the same applyRecord as the tail and
// there is one format on disk.

// snapshot is an in-memory capture of the durable state, read by
// writeCheckpoint and StateFingerprint.
type snapshot struct {
	// Versions are every servable's documents, oldest first; the last is
	// the latest.
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
	// Tenants and Bindings are the tenant registry — quota specs and
	// identity→tenant mappings — so fairness policy survives a restart;
	// Users are the registered accounts (credential hashes only) so
	// operators and clients can log back in after recovery.
	Tenants  []auth.Tenant
	Bindings map[string]string
	Users    map[string]userRecord
}

// captureSnapshot collects the durable state. The catalogue costs
// pointers and slice headers only: installed documents and component maps
// are immutable (repository.go), so the encoder can read them after the
// lock is dropped with nothing to race. Each part is read under its own
// lock, one at a time; the caller holds what keeps every apply out
// meanwhile — the WAL's lock for a checkpoint, commitMu for a
// fingerprint — so the parts are of one state.
func (s *Service) captureSnapshot() snapshot {
	snap := snapshot{Policies: s.scaler.policies(), Users: s.snapshotUsers()}
	snap.Tenants, snap.Bindings = s.tenants.Snapshot()
	s.repo.capture(&snap)
	snap.Placements, snap.Replicas, snap.Draining = s.route.routeSnapshot()
	return snap
}

// writeCheckpoint writes every durable fact to w as one record — the
// store checkpoint hook (registered via store.SetCheckpointer). The WAL
// calls it with its own lock held, which every commit's append and apply
// also hold, so the state written is exactly that of the records about
// to be truncated; it must therefore never commit (deadlock) — it only
// reads.
//
// Records come in the order replay needs them — a servable before its
// placements, a tenant's quota before its bindings — and in sorted key
// order within a kind, so the same state always gives the same bytes.
// Every version of a servable is a publish record; only the latest
// carries the components, as only the latest keeps them in memory. The
// latest comes first: replay then indexes it once and fills the older
// slots below it without indexing them.
func (s *Service) writeCheckpoint(w io.Writer) error {
	snap := s.captureSnapshot()
	var err error
	put := func(kind string, payload any) {
		if err != nil {
			return
		}
		var data []byte
		if data, err = json.Marshal(payload); err != nil {
			err = fmt.Errorf("core: checkpoint %s record: %w", kind, err)
			return
		}
		err = store.WriteRecord(w, store.Record{Kind: kind, Data: data})
	}
	for _, id := range sortedKeys(snap.Versions) {
		vs := snap.Versions[id]
		last := len(vs) - 1
		put(recKindPublish, recPublish{Doc: vs[last], Components: snap.Components[id]})
		for _, doc := range vs[:last] {
			// A slot whose publish record was lost holds no version to keep.
			if doc != nil {
				put(recKindPublish, recPublish{Doc: doc})
			}
		}
	}
	for _, id := range sortedKeys(snap.Placements) {
		for _, tm := range snap.Placements[id] {
			put(recKindDeploy, recPlacement{ID: id, TM: tm})
		}
	}
	for _, id := range sortedKeys(snap.Replicas) {
		put(recKindScale, recPlacement{ID: id, Replicas: snap.Replicas[id]})
	}
	for _, tm := range snap.Draining {
		put(recKindDrain, recTM{TM: tm})
	}
	for _, id := range sortedKeys(snap.Policies) {
		put(recKindPolicy, recPolicyPut{ID: id, Policy: snap.Policies[id]})
	}
	for _, t := range snap.Tenants {
		if t.HasQuota {
			put(recKindTenant, recTenantQuota{ID: t.ID, Quota: t.Quota})
		} else {
			// A binding made this tenant and may since have moved on: the
			// record with no identity keeps the tenant and binds nothing.
			put(recKindTenantBind, recTenantBind{TenantID: t.ID})
		}
	}
	for _, id := range sortedKeys(snap.Bindings) {
		put(recKindTenantBind, recTenantBind{IdentityID: id, TenantID: snap.Bindings[id]})
	}
	for _, key := range sortedKeys(snap.Users) {
		put(recKindUser, snap.Users[key])
	}
	return err
}
