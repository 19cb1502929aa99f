package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/servable"
)

// repository is the model repository (§IV-A): every published version
// of every servable, the latest version's components, and the search
// index over the latest documents. It has its own lock, touched in this
// file only (as rt.mu is in routing.go), which guards the index too.
//
// Documents are IMMUTABLE once installed: nothing writes through a
// *schema.Document reachable from here. A metadata edit installs an
// edited, validated copy in the latest slot, so a pointer handed out by
// latest() — to an HTTP response being encoded, the WAL, a checkpoint —
// stays a consistent document forever and readers never copy. The same
// holds for the flattened document the index keeps and every search hit
// shares. The index changes only inside the write-locked section that
// changes the entry it describes, so a search hit always names a
// servable latest() resolves, and the other way round.
//
// Lock order: r.mu → {rt.mu, result cache}, never the reverse.
// The control-plane operations that must be atomic against an unpublish
// run their routing write inside whilePublished (read side) or remove
// (write side). logged() is never called with r.mu held: the WAL runs
// the checkpoint hook, which takes r.mu, under its own lock.
type repository struct {
	mu      sync.RWMutex
	entries map[string]*entry
	index   *search.Index
}

// entry is one servable: versions[i] is version i+1 (a slot is nil only
// while WAL replay waits for a record that arrived out of order), the
// last slot is the latest, and components belong to the latest.
type entry struct {
	versions   []*schema.Document
	components map[string][]byte
}

func (e *entry) latest() *schema.Document { return e.versions[len(e.versions)-1] }

func newRepository() *repository {
	return &repository{entries: make(map[string]*entry), index: search.NewIndex()}
}

// ingestLocked makes the index describe doc; r.mu held for writing. The
// owner is a principal of the document, as it is to Service.Get: list
// and search show a servable to whoever Get shows it to.
func (r *repository) ingestLocked(doc *schema.Document) {
	acl := append(slices.Clip(doc.Publication.VisibleTo), doc.Owner)
	r.index.Ingest(search.Doc{ID: doc.ID, Fields: schema.Flatten(doc), VisibleTo: acl})
}

// latest returns the current document of a servable.
func (r *repository) latest(id string) (*schema.Document, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, false
	}
	return e.latest(), true
}

// versionsOf lists every published version of a servable, oldest first.
func (r *repository) versionsOf(id string) []*schema.Document {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.entries[id]; ok {
		return append([]*schema.Document(nil), e.versions...)
	}
	return nil
}

// pkg assembles the deployable package of a servable's latest version
// (nil when it is not published).
func (r *repository) pkg(id string) *servable.Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if !ok {
		return nil
	}
	return &servable.Package{Doc: e.latest(), Components: e.components}
}

// search queries the index; its hits share the index's documents.
func (r *repository) search(q search.Query) search.Result {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.index.Search(q)
}

// install publishes doc as the next version of doc.ID, stamping the
// version number on it. The repository owns doc from here on.
func (r *repository) install(doc *schema.Document, components map[string][]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	doc.Version = 1
	if e, ok := r.entries[doc.ID]; ok {
		doc.Version = len(e.versions) + 1
	}
	r.putLocked(doc, components)
}

// putLocked places doc in the slot its Version names, creating the entry
// and padding the slots below it as needed; r.mu held for writing. Only
// a document that lands in the last slot — the latest — brings its
// components and is indexed.
func (r *repository) putLocked(doc *schema.Document, components map[string][]byte) {
	e := r.entries[doc.ID]
	if e == nil {
		e = &entry{}
		r.entries[doc.ID] = e
	}
	for len(e.versions) < doc.Version {
		e.versions = append(e.versions, nil)
	}
	e.versions[doc.Version-1] = doc
	if doc.Version == len(e.versions) {
		e.components = components
		r.ingestLocked(doc)
	}
}

// ownedLocked resolves id for a mutation only its owner may make; r.mu
// held for writing.
func (r *repository) ownedLocked(id, owner, verb string) (*entry, error) {
	e, ok := r.entries[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if e.latest().Owner != owner {
		return nil, fmt.Errorf("%w: only the owner may %s %s", ErrForbidden, verb, id)
	}
	return e, nil
}

// update applies edit to a COPY of the latest document's publication
// block and, when the result validates, installs the copy in the latest
// slot and returns it. A rejected edit changes nothing.
func (r *repository) update(id, owner string, edit func(*schema.Publication)) (*schema.Document, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, err := r.ownedLocked(id, owner, "update")
	if err != nil {
		return nil, err
	}
	doc := e.latest().Clone()
	edit(&doc.Publication)
	if err := schema.Validate(doc); err != nil {
		return nil, err
	}
	e.versions[len(e.versions)-1] = doc
	r.ingestLocked(doc)
	return doc, nil
}

// remove deletes a servable — every version, its components, its index
// entry — and calls under with the write lock still held. under drops
// what must not outlive the entry (placements, cached results): a
// deploy recording its placement runs inside whilePublished, so it
// cannot interleave and leave a ghost placement for the deleted
// servable, and a re-Publish of the id cannot start until under has
// returned, so nothing of the fresh publication is destroyed.
func (r *repository) remove(id, owner string, under func()) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.ownedLocked(id, owner, "unpublish"); err != nil {
		return err
	}
	delete(r.entries, id)
	r.index.Delete(id)
	under()
	return nil
}

// whilePublished runs fn with the read lock held if id is published,
// and reports whether it was. fn's routing write and a concurrent
// remove's are therefore mutually exclusive.
func (r *repository) whilePublished(id string, fn func()) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.entries[id]
	if ok {
		fn()
	}
	return ok
}

// --- WAL replay (durable.go) and the checkpoint (persist.go) ----------------

// replayVersion is install for a publish record. Replay is an upsert:
// the checkpoint may already hold the version, and records of
// concurrent publishes may sit in the log out of order — each lands in
// its own slot, and only the newest brings its components.
func (r *repository) replayVersion(doc *schema.Document, components map[string][]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.putLocked(doc, components)
}

// replayMetadata is update for a metadata record, which carries the
// whole edited document. It applies only to the version that is still
// the latest: an edit of a since-superseded version is history.
func (r *repository) replayMetadata(id string, doc *schema.Document) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok && e.latest().Version == doc.Version {
		e.versions[len(e.versions)-1] = doc
		r.ingestLocked(doc)
	}
}

// capture fills snap's catalogue fields — pointers and copies of the
// version slices only; the documents are immutable — and calls under
// with the read lock still held, so what under adds is consistent with
// the catalogue (persist.go).
func (r *repository) capture(snap *snapshot, under func()) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap.Docs = make(map[string]*schema.Document, len(r.entries))
	snap.Versions = make(map[string][]*schema.Document, len(r.entries))
	snap.Components = make(map[string]map[string][]byte, len(r.entries))
	for id, e := range r.entries {
		snap.Docs[id] = e.latest()
		snap.Versions[id] = append([]*schema.Document(nil), e.versions...)
		snap.Components[id] = e.components
	}
	under()
}
