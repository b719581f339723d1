package main

import (
	"errors"
	"strings"
	"testing"

	"powerpunch/internal/config"
	"powerpunch/internal/experiments"
)

// TestResolveOverrides pins the flag-to-Overrides translation: the
// fabric defaults an unset -width/-height fills in, and the two
// validation failures that make the CLI exit 2.
func TestResolveOverrides(t *testing.T) {
	t.Parallel()
	type ov = experiments.Overrides
	for _, tc := range []struct {
		name string
		in   ov
		want ov
		err  string // substring of the error; empty means none
	}{
		{name: "defaults", in: ov{}, want: ov{}},
		{name: "checks and fulltick pass through",
			in:   ov{Checks: true, FullTick: true, PowerPreset: "dsent-22nm"},
			want: ov{Checks: true, FullTick: true, PowerPreset: "dsent-22nm"}},
		{name: "topology alone is 8x8", in: ov{Topology: "torus"}, want: ov{Topology: "torus", Width: 8, Height: 8}},
		{name: "width alone", in: ov{Width: 4}, want: ov{Width: 4, Height: 8}},
		{name: "ring", in: ov{Topology: "ring", Width: 16}, want: ov{Topology: "ring", Width: 16, Height: 1}},
		{name: "bad topology", in: ov{Topology: "hex"}, err: `unknown topology "hex"`},
		{name: "unknown preset", in: ov{PowerPreset: "nope"}, err: `unknown power preset "nope"`},
	} {
		got, err := resolveOverrides(tc.in)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}

	var pe *config.UnknownPowerPresetError
	if _, err := resolveOverrides(ov{PowerPreset: "nope"}); !errors.As(err, &pe) || pe.Name != "nope" {
		t.Errorf("unknown preset: err = %v, want a *config.UnknownPowerPresetError", err)
	}
}
