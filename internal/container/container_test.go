package container

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/simconst"
)

func init() {
	// Compress injected latencies so container tests run fast.
	simconst.Scale = 1000
}

func TestNewLayerContentAddressed(t *testing.T) {
	a := NewLayer([]File{{Path: "/m", Data: []byte("x")}, {Path: "/a", Data: []byte("y")}})
	b := NewLayer([]File{{Path: "/a", Data: []byte("y")}, {Path: "/m", Data: []byte("x")}})
	if a.Digest != b.Digest {
		t.Fatal("digest must be order-independent")
	}
	c := NewLayer([]File{{Path: "/a", Data: []byte("z")}})
	if c.Digest == a.Digest {
		t.Fatal("different content must differ")
	}
	if !strings.HasPrefix(a.Digest, "sha256:") {
		t.Fatalf("digest format wrong: %s", a.Digest)
	}
	if a.Size != 2 {
		t.Fatalf("size wrong: %d", a.Size)
	}
}

// Property: layer digests collide only for identical content.
func TestLayerDigestProperty(t *testing.T) {
	f := func(p1, p2 string, d1, d2 []byte) bool {
		l1 := NewLayer([]File{{Path: p1, Data: d1}})
		l2 := NewLayer([]File{{Path: p2, Data: d2}})
		same := p1 == p2 && string(d1) == string(d2)
		return (l1.Digest == l2.Digest) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryPushPull(t *testing.T) {
	r := NewRegistry()
	im := &Image{Name: "dlhub/base", Tag: "1.0", Layers: []Layer{NewLayer([]File{{Path: "/bin/sh", Data: []byte("#!")}})}}
	r.Push(im)
	got, err := r.Pull("dlhub/base:1.0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Ref() != "dlhub/base:1.0" {
		t.Fatalf("wrong ref %s", got.Ref())
	}
	if _, err := r.Pull("ghost:1.0"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("want ErrImageNotFound, got %v", err)
	}
	// Default tag.
	r.Push(&Image{Name: "x", Tag: "latest"})
	if _, err := r.Pull("x"); err != nil {
		t.Fatalf("bare name should pull :latest: %v", err)
	}
}

func TestRegistryLayerDedup(t *testing.T) {
	r := NewRegistry()
	shared := NewLayer([]File{{Path: "/usr/lib/python3", Data: []byte("py")}})
	r.Push(&Image{Name: "a", Tag: "latest", Layers: []Layer{shared}})
	r.Push(&Image{Name: "b", Tag: "latest", Layers: []Layer{shared, NewLayer([]File{{Path: "/model", Data: []byte("w")}})}})
	if len(r.layers) != 2 {
		t.Fatalf("shared layer should be stored once: %d layers", len(r.layers))
	}
	if len(r.images) != 2 {
		t.Fatalf("want 2 images, got %v", r.images)
	}
}

func TestBuilderComposesLayers(t *testing.T) {
	r := NewRegistry()
	b := NewBuilder(r)
	// Base image with the DLHub shim.
	base, err := b.Build(BuildSpec{
		Name:       "dlhub/base",
		Tag:        "1.0",
		Files:      []File{{Path: "/opt/dlhub/shim.py", Data: []byte("shim")}},
		Entrypoint: "dlhub-shim",
		Env:        map[string]string{"DLHUB": "1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Model image layered on the base, as the Management Service builds.
	im, err := b.Build(BuildSpec{
		Base:  base.Ref(),
		Name:  "servables/cifar10",
		Deps:  map[string]string{"keras": "2.2.4", "numpy": "1.15"},
		Files: []File{{Path: "/model/weights.bin", Data: []byte{1, 2, 3}}},
		Env:   map[string]string{"MODEL": "cifar10"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := im.Files()
	if _, ok := fs["/opt/dlhub/shim.py"]; !ok {
		t.Fatal("base layer files missing")
	}
	if _, ok := fs["/model/weights.bin"]; !ok {
		t.Fatal("model files missing")
	}
	if _, ok := fs["/usr/lib/python3/site-packages/keras/VERSION"]; !ok {
		t.Fatal("dependency layer missing")
	}
	if im.Entrypoint != "dlhub-shim" {
		t.Fatal("entrypoint should inherit from base")
	}
	if im.Env["DLHUB"] != "1" || im.Env["MODEL"] != "cifar10" {
		t.Fatalf("env merge wrong: %v", im.Env)
	}
	if _, err := b.Build(BuildSpec{Base: "ghost:9", Name: "x"}); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("missing base should fail, got %v", err)
	}
}

func TestDockerfileRendering(t *testing.T) {
	spec := BuildSpec{
		Base:       "dlhub/base:1.0",
		Deps:       map[string]string{"keras": "2.2.4"},
		Files:      []File{{Path: "/model/w.bin", Data: []byte{1}}},
		Entrypoint: "dlhub-shim",
		Env:        map[string]string{"MODEL": "m"},
	}
	df := spec.Dockerfile()
	for _, want := range []string{"FROM dlhub/base:1.0", "RUN pip install keras==2.2.4", "COPY /model/w.bin", "ENV MODEL=m", `ENTRYPOINT ["dlhub-shim"]`} {
		if !strings.Contains(df, want) {
			t.Fatalf("Dockerfile missing %q:\n%s", want, df)
		}
	}
	empty := BuildSpec{}
	if !strings.Contains(empty.Dockerfile(), "FROM scratch") {
		t.Fatal("empty spec should build FROM scratch")
	}
}

type testProc struct {
	mu      sync.Mutex
	started bool
	stopped bool
	fs      map[string][]byte
	failOn  bool
}

func (p *testProc) Start(fs map[string][]byte, env map[string]string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failOn {
		return errors.New("crash on start")
	}
	p.started = true
	p.fs = fs
	return nil
}

func (p *testProc) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
}

func TestRuntimeLifecycle(t *testing.T) {
	r := NewRegistry()
	b := NewBuilder(r)
	im, _ := b.Build(BuildSpec{
		Name: "svc", Entrypoint: "proc",
		Files: []File{{Path: "/data", Data: []byte("d")}},
	})
	rt := NewRuntime(r)
	var proc *testProc
	rt.RegisterProcess("proc", func() Process {
		proc = &testProc{}
		return proc
	})

	c, err := rt.Run(im.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if State(c.state.Load()) != StateRunning || !proc.started {
		t.Fatalf("container should be running: state %d", c.state.Load())
	}
	if string(proc.fs["/data"]) != "d" {
		t.Fatal("process should see image filesystem")
	}
	if rt.Running() != 1 {
		t.Fatalf("want 1 running, got %d", rt.Running())
	}

	if err := rt.Stop(c.ID); err != nil {
		t.Fatal(err)
	}
	if !proc.stopped || State(c.state.Load()) != StateStopped {
		t.Fatal("stop not propagated")
	}
	if err := rt.Stop(c.ID); !errors.Is(err, ErrContainerNotFound) {
		t.Fatalf("double stop should be not-found, got %v", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	r := NewRegistry()
	rt := NewRuntime(r)
	if _, err := rt.Run("ghost"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("want image not found, got %v", err)
	}

	b := NewBuilder(r)
	im, _ := b.Build(BuildSpec{Name: "noentry", Entrypoint: "missing"})
	if _, err := rt.Run(im.Ref()); !errors.Is(err, ErrNoEntrypoint) {
		t.Fatalf("want no entrypoint, got %v", err)
	}

	im2, _ := b.Build(BuildSpec{Name: "crasher", Entrypoint: "crash"})
	rt.RegisterProcess("crash", func() Process { return &testProc{failOn: true} })
	if _, err := rt.Run(im2.Ref()); err == nil || !strings.Contains(err.Error(), "crash on start") {
		t.Fatalf("entrypoint failure should propagate, got %v", err)
	}
	if rt.Running() != 0 {
		t.Fatal("failed container should not be tracked")
	}
	if err := rt.Stop("ctr-404"); !errors.Is(err, ErrContainerNotFound) {
		t.Fatalf("want container not found, got %v", err)
	}
}
