// Package container is the Docker/Singularity substrate of §IV-A: the
// Management Service "combines DLHub-specific dependencies with
// user-supplied model dependencies into a Dockerfile. It then uses the
// Dockerfile to create a Docker container with the uploaded model
// components and all required dependencies. Finally, it uploads the
// container to the DLHub model repository."
//
// Images are content-addressed stacks of layers; a Registry stores and
// deduplicates layers; Containers are running instances with an
// entrypoint resolved from a process registry (the stand-in for an OS
// exec of the container's command). Start-up pays the injected
// ContainerStartLatency, charged at deployment time only.
package container

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simconst"
)

// Errors.
var (
	ErrImageNotFound     = errors.New("container: image not found")
	ErrContainerNotFound = errors.New("container: container not found")
	ErrNoEntrypoint      = errors.New("container: entrypoint not registered")
	ErrAlreadyStopped    = errors.New("container: already stopped")
)

// File is one file baked into a layer.
type File struct {
	Path string
	Data []byte
}

// Layer is an immutable set of files with a content digest.
type Layer struct {
	Digest string
	Files  []File
	Size   int64
}

// NewLayer builds a layer, computing its content-addressed digest.
func NewLayer(files []File) Layer {
	sorted := append([]File(nil), files...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	h := sha256.New()
	var size int64
	for _, f := range sorted {
		h.Write([]byte(f.Path))
		h.Write([]byte{0})
		h.Write(f.Data)
		h.Write([]byte{0})
		size += int64(len(f.Data))
	}
	return Layer{Digest: "sha256:" + hex.EncodeToString(h.Sum(nil)), Files: sorted, Size: size}
}

// Image is a named, tagged stack of layers plus config.
type Image struct {
	Name       string
	Tag        string
	Layers     []Layer
	Entrypoint string            // process-registry key
	Env        map[string]string // baked environment
	Labels     map[string]string
}

// Ref returns the image reference "name:tag".
func (im *Image) Ref() string { return im.Name + ":" + im.Tag }

// Files returns the merged filesystem view (later layers win).
func (im *Image) Files() map[string][]byte {
	fs := make(map[string][]byte)
	for _, l := range im.Layers {
		for _, f := range l.Files {
			fs[f.Path] = f.Data
		}
	}
	return fs
}

// BuildSpec is the "Dockerfile": a base image, dependency declarations
// and files to bake in.
type BuildSpec struct {
	Base       string // base image ref, may be "" for scratch
	Name       string
	Tag        string
	Deps       map[string]string // package -> version (pip/conda style)
	Files      []File            // model components etc.
	Entrypoint string
	Env        map[string]string
	Labels     map[string]string
}

// Dockerfile renders the spec in Dockerfile syntax for provenance
// display (the artifact a user would see in the repository).
func (b *BuildSpec) Dockerfile() string {
	var sb strings.Builder
	base := b.Base
	if base == "" {
		base = "scratch"
	}
	fmt.Fprintf(&sb, "FROM %s\n", base)
	deps := make([]string, 0, len(b.Deps))
	for pkg, ver := range b.Deps {
		deps = append(deps, pkg+"=="+ver)
	}
	sort.Strings(deps)
	if len(deps) > 0 {
		fmt.Fprintf(&sb, "RUN pip install %s\n", strings.Join(deps, " "))
	}
	for _, f := range b.Files {
		fmt.Fprintf(&sb, "COPY %s %s\n", f.Path, f.Path)
	}
	keys := make([]string, 0, len(b.Env))
	for k := range b.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "ENV %s=%s\n", k, b.Env[k])
	}
	if b.Entrypoint != "" {
		fmt.Fprintf(&sb, "ENTRYPOINT [%q]\n", b.Entrypoint)
	}
	return sb.String()
}

// Registry stores images and deduplicates layers by digest.
type Registry struct {
	mu     sync.RWMutex
	images map[string]*Image // ref -> image
	layers map[string]Layer  // digest -> layer (dedup pool)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{images: make(map[string]*Image), layers: make(map[string]Layer)}
}

// Push stores an image; shared layers are deduplicated.
func (r *Registry) Push(im *Image) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range im.Layers {
		if _, ok := r.layers[l.Digest]; !ok {
			r.layers[l.Digest] = l
		}
	}
	cp := *im
	cp.Layers = append([]Layer(nil), im.Layers...)
	r.images[im.Ref()] = &cp
}

// Pull fetches an image by ref ("name:tag"; ":latest" assumed if no tag).
func (r *Registry) Pull(ref string) (*Image, error) {
	if !strings.Contains(ref, ":") {
		ref += ":latest"
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	im, ok := r.images[ref]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrImageNotFound, ref)
	}
	cp := *im
	cp.Layers = append([]Layer(nil), im.Layers...)
	return &cp, nil
}

// Builder assembles images from BuildSpecs against a registry.
type Builder struct {
	registry *Registry
}

// NewBuilder returns a builder that pulls bases from and pushes results
// to registry.
func NewBuilder(registry *Registry) *Builder { return &Builder{registry: registry} }

// Build creates the image: base layers (if any), one layer for
// dependencies, one layer for files. The result is pushed to the
// registry and returned.
func (b *Builder) Build(spec BuildSpec) (*Image, error) {
	var layers []Layer
	env := map[string]string{}
	entry := spec.Entrypoint
	if spec.Base != "" {
		base, err := b.registry.Pull(spec.Base)
		if err != nil {
			return nil, fmt.Errorf("container: base image: %w", err)
		}
		layers = append(layers, base.Layers...)
		for k, v := range base.Env {
			env[k] = v
		}
		if entry == "" {
			entry = base.Entrypoint
		}
	}
	if len(spec.Deps) > 0 {
		var files []File
		pkgs := make([]string, 0, len(spec.Deps))
		for pkg := range spec.Deps {
			pkgs = append(pkgs, pkg)
		}
		sort.Strings(pkgs)
		for _, pkg := range pkgs {
			files = append(files, File{
				Path: "/usr/lib/python3/site-packages/" + pkg + "/VERSION",
				Data: []byte(spec.Deps[pkg]),
			})
		}
		layers = append(layers, NewLayer(files))
	}
	if len(spec.Files) > 0 {
		layers = append(layers, NewLayer(spec.Files))
	}
	for k, v := range spec.Env {
		env[k] = v
	}
	im := &Image{
		Name:       spec.Name,
		Tag:        orLatest(spec.Tag),
		Layers:     layers,
		Entrypoint: entry,
		Env:        env,
		Labels:     spec.Labels,
	}
	b.registry.Push(im)
	return im, nil
}

func orLatest(tag string) string {
	if tag == "" {
		return "latest"
	}
	return tag
}

// --- runtime ------------------------------------------------------------

// State is a container lifecycle state.
type State int32

// Container lifecycle states.
const (
	StateStarting State = iota + 1
	StateRunning
	StateStopped
)

// Process is the in-Go stand-in for a container's main process: it is
// given the image filesystem and environment, and may expose an Invoke
// function that the serving layer routes requests to.
type Process interface {
	// Start is called once when the container starts.
	Start(fs map[string][]byte, env map[string]string) error
	// Stop is called once when the container stops.
	Stop()
}

// ProcessFactory creates a Process for each container instance.
type ProcessFactory func() Process

// Runtime runs containers on one "machine" (in the mini-K8s, one per
// node).
type Runtime struct {
	registry *Registry

	mu         sync.RWMutex
	processes  map[string]ProcessFactory
	containers map[string]*Container
	nextID     atomic.Int64
}

// NewRuntime creates a runtime backed by the given image registry.
func NewRuntime(registry *Registry) *Runtime {
	return &Runtime{
		registry:   registry,
		processes:  make(map[string]ProcessFactory),
		containers: make(map[string]*Container),
	}
}

// RegisterProcess installs the factory for an entrypoint key. The
// builder bakes entrypoint keys into images; the runtime resolves them
// here — the moral equivalent of the binary being present in the image.
func (rt *Runtime) RegisterProcess(entrypoint string, f ProcessFactory) {
	rt.mu.Lock()
	rt.processes[entrypoint] = f
	rt.mu.Unlock()
}

// Container is one running instance.
type Container struct {
	ID    string
	Image *Image
	Proc  Process
	state atomic.Int32
}

// Run pulls the image, instantiates its entrypoint process and starts
// it, paying the injected container start latency.
func (rt *Runtime) Run(imageRef string) (*Container, error) {
	im, err := rt.registry.Pull(imageRef)
	if err != nil {
		return nil, err
	}
	rt.mu.RLock()
	factory, ok := rt.processes[im.Entrypoint]
	rt.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoEntrypoint, im.Entrypoint)
	}
	c := &Container{
		ID:    fmt.Sprintf("ctr-%d", rt.nextID.Add(1)),
		Image: im,
		Proc:  factory(),
	}
	c.state.Store(int32(StateStarting))
	time.Sleep(simconst.D(simconst.ContainerStartLatency))
	if err := c.Proc.Start(im.Files(), im.Env); err != nil {
		c.state.Store(int32(StateStopped))
		return nil, fmt.Errorf("container: entrypoint failed: %w", err)
	}
	c.state.Store(int32(StateRunning))
	rt.mu.Lock()
	rt.containers[c.ID] = c
	rt.mu.Unlock()
	return c, nil
}

// Stop terminates a container.
func (rt *Runtime) Stop(id string) error {
	rt.mu.Lock()
	c, ok := rt.containers[id]
	if ok {
		delete(rt.containers, id)
	}
	rt.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrContainerNotFound, id)
	}
	if !c.state.CompareAndSwap(int32(StateRunning), int32(StateStopped)) {
		return ErrAlreadyStopped
	}
	c.Proc.Stop()
	return nil
}

// Running returns the number of running containers.
func (rt *Runtime) Running() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return len(rt.containers)
}
