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
// Every write is one record kind's apply (durable.go), so it runs under
// commitMu and the WAL's lock, and r.mu is never held while another of
// the service's locks is taken. A mutation splits in two: a check that
// reads (nextVersion, edited, owned) and the apply that writes (put,
// setLatest, remove); commitMu keeps the state between them still.
type repository struct {
	mu      sync.RWMutex
	entries map[string]*entry
	index   *search.Index
}

// entry is one servable: versions[i] is version i+1 (a slot is nil only
// while replaying a log an older build wrote, whose concurrent publishes
// could land out of order), the
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

// nextVersion is the version a publish of id installs.
func (r *repository) nextVersion(id string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.entries[id]; ok {
		return len(e.versions) + 1
	}
	return 1
}

// put places doc in the slot its Version names, creating the entry and
// padding the slots below it as needed. Only a document that lands in
// the last slot — the latest — brings its components and is indexed, so
// a checkpoint's older versions, written after the latest, fill their
// slots without touching the index.
func (r *repository) put(doc *schema.Document, components map[string][]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
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
// held.
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

// owned checks that id is published and that owner may verb it.
func (r *repository) owned(id, owner, verb string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, err := r.ownedLocked(id, owner, verb)
	return err
}

// edited applies edit to a COPY of the latest document's publication
// block and returns the copy if it validates. Nothing is installed.
func (r *repository) edited(id, owner string, edit func(*schema.Publication)) (*schema.Document, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, err := r.ownedLocked(id, owner, "update")
	if err != nil {
		return nil, err
	}
	doc := e.latest().Clone()
	edit(&doc.Publication)
	if err := schema.Validate(doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// setLatest installs an edited document in the latest slot. It applies
// only to the version that is still the latest: an edit of a
// since-superseded version is history.
func (r *repository) setLatest(id string, doc *schema.Document) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok && e.latest().Version == doc.Version {
		e.versions[len(e.versions)-1] = doc
		r.ingestLocked(doc)
	}
}

// remove deletes a servable — every version, its components, its index
// entry.
func (r *repository) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.entries, id)
	r.index.Delete(id)
}

// capture fills snap's catalogue fields — pointers and copies of the
// version slices only; the documents are immutable (persist.go).
func (r *repository) capture(snap *snapshot) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap.Versions = make(map[string][]*schema.Document, len(r.entries))
	snap.Components = make(map[string]map[string][]byte, len(r.entries))
	for id, e := range r.entries {
		snap.Versions[id] = append([]*schema.Document(nil), e.versions...)
		snap.Components[id] = e.components
	}
}
