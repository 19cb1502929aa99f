package executor

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/container"
	"repro/internal/schema"
	"repro/internal/servable"
)

// The servable image layout. ImageSpec is its one writer and LoadImage
// its one reader: the Management Service's repository build, every
// executor's deployment build and every in-container process go through
// these two.
const (
	imageDocPath       = "/dlhub/doc.json"
	imageComponentsDir = "/dlhub/components/"
)

// ImageSpec is the build recipe of a servable image (§IV-A): "DLHub-
// specific dependencies" plus the user's, then the document and the
// model components, with the serving process as entrypoint.
func ImageSpec(pkg *servable.Package, entrypoint string) (container.BuildSpec, error) {
	docData, err := json.Marshal(pkg.Doc)
	if err != nil {
		return container.BuildSpec{}, err
	}
	files := []container.File{{Path: imageDocPath, Data: docData}}
	for name, data := range pkg.Components {
		files = append(files, container.File{Path: imageComponentsDir + name, Data: data})
	}
	deps := map[string]string{"dlhub_sdk": "0.8.4", "parsl": "0.7.2"}
	for k, v := range pkg.Doc.Servable.Dependencies {
		deps[k] = v
	}
	return container.BuildSpec{
		Name:       "servables/" + pkg.Doc.Publication.Name,
		Tag:        fmt.Sprintf("v%d", max(1, pkg.Doc.Version)),
		Deps:       deps,
		Files:      files,
		Entrypoint: entrypoint,
		Labels:     map[string]string{"dlhub.servable": pkg.Doc.ID},
	}, nil
}

// BuildServableImage bakes a servable package into a container image
// and pushes it to the builder's registry.
func BuildServableImage(b *container.Builder, pkg *servable.Package, entrypoint string) (*container.Image, error) {
	spec, err := ImageSpec(pkg, entrypoint)
	if err != nil {
		return nil, err
	}
	return b.Build(spec)
}

// LoadImage is what a serving process does first: read the document and
// the components back out of its image filesystem and load the
// servable, under the simulated Python runtime or natively.
func LoadImage(fs map[string][]byte, pythonHosted bool) (*servable.Servable, error) {
	docData, ok := fs[imageDocPath]
	if !ok {
		return nil, fmt.Errorf("executor: image missing %s", imageDocPath)
	}
	var doc schema.Document
	if err := json.Unmarshal(docData, &doc); err != nil {
		return nil, fmt.Errorf("executor: bad servable doc: %w", err)
	}
	components := map[string][]byte{}
	for path, data := range fs {
		if name, ok := strings.CutPrefix(path, imageComponentsDir); ok {
			components[name] = data
		}
	}
	return servable.Load(&doc, components, pythonHosted)
}
