package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun checks a small tree of documents: links that resolve pass, a
// missing file and a missing anchor are each reported and fail the run,
// and a machine-imported document's breakage is listed but exempt.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		files  map[string]string
		args   []string
		ok     bool
		report []string // substrings of stdout
	}{
		{
			name: "good relative link, anchors and a fenced sample",
			files: map[string]string{
				"README.md":      "# Top\n\n## Usage\n\n## Usage\n\nSee [design](docs/DESIGN.md#the-layers), [usage](#usage-1), [site](https://example.org).\n\n```\n[not a link](nowhere.md)\n```\n",
				"docs/DESIGN.md": "# Design\n\n## The layers\n\nBack to [the top](../README.md#top).\n",
			},
			ok:     true,
			report: []string{"README.md", "3 links (1 external)  ok", "docs/DESIGN.md"},
		},
		{
			name:   "broken file link",
			files:  map[string]string{"README.md": "See [gone](GONE.md).\n"},
			report: []string{"BROKEN (1)", "broken: GONE.md"},
		},
		{
			name: "broken anchor, here and in another document",
			files: map[string]string{
				"README.md": "# Top\n\n[a](#nope) [b](OTHER.md#nope) [c](OTHER.md#there)\n",
				"OTHER.md":  "# There\n",
			},
			report: []string{"BROKEN (2)", "broken: #nope", "broken: OTHER.md#nope"},
		},
		{
			name: "machine-imported document is exempt",
			files: map[string]string{
				"PAPERS.md": "![fig](figures/never-imported.png)\n",
				"README.md": "[papers](PAPERS.md)\n",
			},
			ok:     true,
			report: []string{"skipped (1 unresolved, machine-imported)"},
		},
		{
			name:   "-skip names the exempt documents",
			files:  map[string]string{"PAPERS.md": "[gone](GONE.md)\n"},
			args:   []string{"-skip", "OTHER.md"},
			report: []string{"BROKEN (1)"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			for name, text := range tc.files {
				path := filepath.Join(root, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			out := filepath.Join(root, "report.txt")
			var stdout bytes.Buffer
			err := run(append([]string{"-root", root, "-out", out}, tc.args...), &stdout, io.Discard)
			if (err == nil) != tc.ok {
				t.Errorf("run: %v, want ok=%v\n%s", err, tc.ok, stdout.String())
			}
			for _, want := range tc.report {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("report lacks %q:\n%s", want, stdout.String())
				}
			}
			if written, err := os.ReadFile(out); err != nil || string(written) != stdout.String() {
				t.Errorf("-out wrote %q (%v), stdout has %q", written, err, stdout.String())
			}
		})
	}
	if err := run([]string{"-nope"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
}
