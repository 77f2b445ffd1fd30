package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pbecc/internal/sweep"
)

func TestLoadSpecBuiltin(t *testing.T) {
	got, err := loadSpec("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if want := sweep.Smoke(); !reflect.DeepEqual(got, want) {
		t.Errorf("-spec smoke resolved to %+v, want sweep.Smoke() %+v", got, want)
	}
	for _, newSpec := range builtins {
		want := newSpec()
		if got, err := loadSpec(want.Name); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("-spec %s: got %+v, %v", want.Name, got, err)
		}
	}
}

func TestLoadSpecRejectsUnknown(t *testing.T) {
	_, err := loadSpec("nosuch")
	if err == nil {
		t.Fatal("-spec nosuch: no error")
	}
	for _, name := range []string{"smoke", "metro-smoke", "nation-smoke", "traj", "scorecard"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name built-in %q", err, name)
		}
	}
}

func TestLoadSpecFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"name": "mine", "experiments": ["steady"], "schemes": ["pbe"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(good)
	if err != nil || spec.Name != "mine" {
		t.Fatalf("loadSpec(%s) = %+v, %v", good, spec, err)
	}
	// A typo'd axis key is an error, not a silently defaulted axis.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": "mine", "schemez": ["pbe"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSpec(bad); err == nil {
		t.Fatalf("loadSpec(%s): unknown field accepted", bad)
	}
}
