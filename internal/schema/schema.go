// Package schema defines the DLHub model publication schema of §IV-A:
// "standard publication metadata (e.g., creator, date, name, description)
// as well as ML-specific metadata such as model type (e.g., Keras,
// TensorFlow) and input and output data types." Every published model is
// described by one Document; the Management Service validates it, the
// search index ingests a flattened view of it, and the servable builder
// consumes its Servable block.
package schema

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"time"
)

// ModelType enumerates the model families DLHub can package (§IV: "a
// wide range of model types including TensorFlow, Keras, and
// Scikit-learn", plus arbitrary Python functions and multi-step
// pipelines).
type ModelType string

// Supported model types.
const (
	TypeKeras          ModelType = "keras"
	TypeTensorFlow     ModelType = "tensorflow"
	TypeScikitLearn    ModelType = "sklearn"
	TypePythonFunction ModelType = "python_function"
	TypePipeline       ModelType = "pipeline"
)

// ValidTypes lists every accepted model type.
func ValidTypes() []ModelType {
	return []ModelType{TypeKeras, TypeTensorFlow, TypeScikitLearn, TypePythonFunction, TypePipeline}
}

// DataType describes one input or output of a servable (§III-B "input
// types": primitives, files, structured data).
type DataType struct {
	// Kind is one of: "float", "int", "string", "bool", "ndarray",
	// "list", "dict", "file", "image".
	Kind string `json:"kind"`
	// Shape for ndarrays/images, e.g. [32,32,3]; -1 is a free axis.
	Shape []int `json:"shape,omitempty"`
	// ItemKind for lists (element type).
	ItemKind string `json:"item_kind,omitempty"`
	// Description is human-readable.
	Description string `json:"description,omitempty"`
}

var validKinds = map[string]bool{
	"float": true, "int": true, "string": true, "bool": true,
	"ndarray": true, "list": true, "dict": true, "file": true, "image": true,
}

// Publication is the standard scholarly metadata block, modeled on
// DataCite as DLHub does.
type Publication struct {
	Name        string   `json:"name"`  // short machine name, e.g. "cifar10"
	Title       string   `json:"title"` // human title
	Authors     []string `json:"authors"`
	Description string   `json:"description,omitempty"`
	Domains     []string `json:"domains,omitempty"` // e.g. ["materials science"]
	// Identifier is an optional persistent identifier (BYO DOI).
	Identifier string `json:"identifier,omitempty"`
	// Citation is free-text or BibTeX.
	Citation string `json:"citation,omitempty"`
	// License, e.g. "Apache-2.0".
	License string `json:"license,omitempty"`
	// RelatedDatasets links training/test data (Table I "datasets
	// included: yes").
	RelatedDatasets []string `json:"related_datasets,omitempty"`
	// VisibleTo lists ACL principals; empty means owner-only.
	VisibleTo []string `json:"visible_to,omitempty"`
	// Year of publication.
	Year int `json:"year,omitempty"`
}

// Servable is the ML-specific block describing how to build and run the
// model.
type Servable struct {
	Type ModelType `json:"type"`
	// Language/framework versions for reproducibility.
	Dependencies map[string]string `json:"dependencies,omitempty"`
	// ModelComponents names uploaded artifacts (weights, pickles...)
	// keyed by role, e.g. {"weights": "model.wt", "arch": "net.json"}.
	ModelComponents map[string]string `json:"model_components,omitempty"`
	// Entry identifies the callable: for python_function the
	// "module:function" name; for pipelines empty.
	Entry string `json:"entry,omitempty"`
	// Steps lists servable names for TypePipeline, in order.
	Steps []string `json:"steps,omitempty"`
	// Input/Output types of the standard run interface.
	Input  DataType `json:"input"`
	Output DataType `json:"output"`
	// Hyperparameters used in training (model-building metadata).
	Hyperparameters map[string]json.RawMessage `json:"hyperparameters,omitempty"`
	// TrainingMetadata, e.g. dataset name, epochs, accuracy.
	TrainingMetadata map[string]json.RawMessage `json:"training_metadata,omitempty"`
}

// Document is one complete model publication record.
type Document struct {
	// ID is assigned by the repository: "<owner-short>/<name>".
	ID string `json:"id,omitempty"`
	// Owner is the publishing identity URN.
	Owner string `json:"owner,omitempty"`
	// Version is assigned by the repository, starting at 1.
	Version int `json:"version,omitempty"`
	// PublishedAt is assigned by the repository.
	PublishedAt time.Time `json:"published_at,omitempty"`

	Publication Publication `json:"publication"`
	Servable    Servable    `json:"servable"`
}

// Clone returns a deep copy of the document: no slice, map or raw-JSON
// storage is shared with the receiver. Snapshot persistence clones
// documents under the repository lock so concurrent metadata updates
// can never race the encoder.
func (d *Document) Clone() *Document {
	if d == nil {
		return nil
	}
	cp := *d
	cp.Publication.Authors = append([]string(nil), d.Publication.Authors...)
	cp.Publication.Domains = append([]string(nil), d.Publication.Domains...)
	cp.Publication.RelatedDatasets = append([]string(nil), d.Publication.RelatedDatasets...)
	cp.Publication.VisibleTo = append([]string(nil), d.Publication.VisibleTo...)
	cp.Servable.Dependencies = cloneMap(d.Servable.Dependencies)
	cp.Servable.ModelComponents = cloneMap(d.Servable.ModelComponents)
	cp.Servable.Steps = append([]string(nil), d.Servable.Steps...)
	cp.Servable.Input.Shape = append([]int(nil), d.Servable.Input.Shape...)
	cp.Servable.Output.Shape = append([]int(nil), d.Servable.Output.Shape...)
	cp.Servable.Hyperparameters = cloneRawMap(d.Servable.Hyperparameters)
	cp.Servable.TrainingMetadata = cloneRawMap(d.Servable.TrainingMetadata)
	return &cp
}

func cloneMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func cloneRawMap(m map[string]json.RawMessage) map[string]json.RawMessage {
	if m == nil {
		return nil
	}
	out := make(map[string]json.RawMessage, len(m))
	for k, v := range m {
		out[k] = append(json.RawMessage(nil), v...)
	}
	return out
}

var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// ErrInvalid wraps all validation failures.
var ErrInvalid = errors.New("schema: invalid document")

// Validate checks a document before publication. It returns an error
// listing every violation, wrapped in ErrInvalid.
func Validate(d *Document) error {
	var problems []string
	if !nameRe.MatchString(d.Publication.Name) {
		problems = append(problems, fmt.Sprintf("publication.name %q must match %s", d.Publication.Name, nameRe))
	}
	if d.Publication.Title == "" {
		problems = append(problems, "publication.title is required")
	}
	if len(d.Publication.Authors) == 0 {
		problems = append(problems, "publication.authors must be non-empty")
	}
	typeOK := false
	for _, t := range ValidTypes() {
		if d.Servable.Type == t {
			typeOK = true
			break
		}
	}
	if !typeOK {
		problems = append(problems, fmt.Sprintf("servable.type %q unknown", d.Servable.Type))
	}
	switch d.Servable.Type {
	case TypePythonFunction:
		if d.Servable.Entry == "" || !strings.Contains(d.Servable.Entry, ":") {
			problems = append(problems, `python_function requires servable.entry "module:function"`)
		}
	case TypePipeline:
		if len(d.Servable.Steps) < 2 {
			problems = append(problems, "pipeline requires at least 2 steps")
		}
	case TypeKeras, TypeTensorFlow, TypeScikitLearn:
		if len(d.Servable.ModelComponents) == 0 {
			problems = append(problems, fmt.Sprintf("%s requires model_components (weights etc.)", d.Servable.Type))
		}
	}
	if d.Servable.Type != TypePipeline {
		if err := validateDataType("servable.input", d.Servable.Input); err != "" {
			problems = append(problems, err)
		}
		if err := validateDataType("servable.output", d.Servable.Output); err != "" {
			problems = append(problems, err)
		}
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrInvalid, strings.Join(problems, "; "))
}

func validateDataType(field string, dt DataType) string {
	if dt.Kind == "" {
		return field + ".kind is required"
	}
	if !validKinds[dt.Kind] {
		return fmt.Sprintf("%s.kind %q unknown", field, dt.Kind)
	}
	if dt.Kind == "list" && dt.ItemKind != "" && !validKinds[dt.ItemKind] {
		return fmt.Sprintf("%s.item_kind %q unknown", field, dt.ItemKind)
	}
	for _, axis := range dt.Shape {
		if axis == 0 || axis < -1 {
			return fmt.Sprintf("%s.shape axis %d invalid (must be positive or -1)", field, axis)
		}
	}
	return ""
}

// Flatten produces the key->value view the search index ingests:
// dotted field names with scalar or []string values, mirroring how
// DLHub metadata is indexed in Globus Search. The lists are d's own,
// not copies: the view is read-only, as an installed document is.
func Flatten(d *Document) map[string]any {
	m := map[string]any{
		"id":           d.ID,
		"owner":        d.Owner,
		"version":      d.Version,
		"name":         d.Publication.Name,
		"title":        d.Publication.Title,
		"description":  d.Publication.Description,
		"authors":      d.Publication.Authors,
		"domains":      d.Publication.Domains,
		"identifier":   d.Publication.Identifier,
		"license":      d.Publication.License,
		"year":         d.Publication.Year,
		"type":         string(d.Servable.Type),
		"entry":        d.Servable.Entry,
		"input.kind":   d.Servable.Input.Kind,
		"output.kind":  d.Servable.Output.Kind,
		"published_at": d.PublishedAt.Unix(),
	}
	if len(d.Servable.Steps) > 0 {
		m["steps"] = d.Servable.Steps
	}
	// Empty values would pollute term dictionaries; drop them.
	for k, v := range m {
		switch vv := v.(type) {
		case string:
			if vv == "" {
				delete(m, k)
			}
		case []string:
			if len(vv) == 0 {
				delete(m, k)
			}
		}
	}
	return m
}
