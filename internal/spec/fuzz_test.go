package spec

import (
	"io/fs"
	"strings"
	"testing"

	"ursa/examples/specs"
)

// FuzzSpecParse feeds arbitrary documents through the spec loader: Parse
// (decode + Validate) and Build must reject bad input with an error, never
// panic. The seed corpus is every checked-in spec file plus any crasher
// under testdata/fuzz/FuzzSpecParse, so plain `go test` replays them all.
func FuzzSpecParse(f *testing.F) {
	names, err := fs.Glob(specs.FS, "*.*")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range names {
		data, err := fs.ReadFile(specs.FS, name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, strings.HasSuffix(name, ".json"))
	}
	f.Fuzz(func(t *testing.T, data []byte, isJSON bool) {
		name := "fuzz.yaml"
		if isJSON {
			name = "fuzz.json"
		}
		file, err := Parse(name, data)
		if err != nil {
			return
		}
		if err := file.Validate(); err != nil {
			t.Fatalf("Parse accepted a file Validate rejects: %v", err)
		}
		Build(file)
	})
}

// FuzzParseYAML drives the YAML-subset parser alone, below the decoder:
// any document must either parse or come back as an error, never panic.
// The seed corpus is every checked-in YAML spec plus any crasher under
// testdata/fuzz/FuzzParseYAML.
func FuzzParseYAML(f *testing.F) {
	names, err := fs.Glob(specs.FS, "*.yaml")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range names {
		data, err := fs.ReadFile(specs.FS, name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if n, err := parseYAML(src); err == nil && n == nil {
			t.Fatal("parseYAML returned neither a document nor an error")
		}
	})
}
