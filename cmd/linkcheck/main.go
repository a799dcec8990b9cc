// Command linkcheck validates the repository's Markdown documentation
// offline: every relative link must point at an existing file, and
// every intra-document anchor at a real heading (GitHub slug rules).
// External http(s) links are listed but not fetched — CI stays
// hermetic. The report doubles as the docs-touched artifact the CI
// docs job uploads: one line per document with its link inventory.
//
// Usage:
//
//	go run ./cmd/linkcheck [-root .] [-out linkcheck.txt] [-skip PAPERS.md]
//
// Machine-imported documents (the PAPERS.md retrieval dump references
// figure images that were never part of the repository) are listed but
// exempt from breakage via -skip. Exit status 1 when any non-exempt
// relative link or anchor is broken.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// mdLink matches inline Markdown links [text](target); images share
// the syntax with a leading bang, which the scan treats identically.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// heading matches ATX headings, whose slugs anchors resolve against.
var heading = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)

// fencedBlock matches ``` fenced code blocks, which are prose to the
// renderer: link-shaped code text inside them must not be validated.
var fencedBlock = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```\\s*$")

// codeSpan matches inline `code` spans for the same reason.
var codeSpan = regexp.MustCompile("`[^`\n]*`")

// stripCode removes fenced blocks and inline code spans before the
// link and heading scans.
func stripCode(text string) string {
	return codeSpan.ReplaceAllString(fencedBlock.ReplaceAllString(text, ""), "")
}

// slugStrip drops everything GitHub's anchor slugger drops.
var slugStrip = regexp.MustCompile(`[^a-z0-9 \-]`)

// slugify reproduces GitHub's heading-to-anchor rule: lowercase, strip
// punctuation, spaces to hyphens.
func slugify(h string) string {
	s := strings.ToLower(strings.TrimSpace(h))
	s = slugStrip.ReplaceAllString(s, "")
	return strings.ReplaceAll(s, " ", "-")
}

// anchorsOf collects a document's heading anchors with GitHub's
// duplicate disambiguation: the second "Example" heading anchors as
// example-1, the third as example-2, and so on.
func anchorsOf(text string) map[string]bool {
	anchors := map[string]bool{}
	seen := map[string]int{}
	for _, m := range heading.FindAllStringSubmatch(text, -1) {
		slug := slugify(m[1])
		if n := seen[slug]; n > 0 {
			anchors[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			anchors[slug] = true
		}
		seen[slug]++
	}
	return anchors
}

// doc is one scanned Markdown file.
type doc struct {
	path     string
	links    []string
	external int
	broken   []string
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "linkcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("linkcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root to scan")
	out := fs.String("out", "", "also write the report to this path")
	skip := fs.String("skip", "PAPERS.md", "comma-separated machine-imported files exempt from breakage")
	if err := fs.Parse(args); err != nil {
		return err
	}

	exempt := map[string]bool{}
	for _, s := range strings.Split(*skip, ",") {
		if s = strings.TrimSpace(s); s != "" {
			exempt[s] = true
		}
	}

	docs, err := scan(*root)
	if err != nil {
		return err
	}

	var report strings.Builder
	broken := 0
	for _, d := range docs {
		status := "ok"
		if len(d.broken) > 0 && exempt[filepath.Base(d.path)] {
			status = fmt.Sprintf("skipped (%d unresolved, machine-imported)", len(d.broken))
			d.broken = nil
		}
		if len(d.broken) > 0 {
			status = fmt.Sprintf("BROKEN (%d)", len(d.broken))
			broken += len(d.broken)
		}
		fmt.Fprintf(&report, "%-16s %3d links (%d external)  %s\n",
			d.path, len(d.links), d.external, status)
		for _, b := range d.broken {
			fmt.Fprintf(&report, "    broken: %s\n", b)
		}
	}
	fmt.Fprint(stdout, report.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
			return err
		}
	}
	if broken > 0 {
		return fmt.Errorf("%d broken links", broken)
	}
	return nil
}

// scan walks root for Markdown files (skipping dot-directories) and
// validates each one's links.
func scan(root string) ([]doc, error) {
	var paths []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		name := info.Name()
		if info.IsDir() {
			if strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(strings.ToLower(name), ".md") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)

	docs := make([]doc, 0, len(paths))
	for _, path := range paths {
		d, err := checkFile(root, path)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, path)
		if err == nil {
			d.path = rel
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// checkFile validates one document's links against the filesystem and
// its own headings.
func checkFile(root, path string) (doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return doc{}, err
	}
	text := stripCode(string(data))
	anchors := anchorsOf(text)

	d := doc{path: path}
	for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
		target := m[1]
		d.links = append(d.links, target)
		switch {
		case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
			strings.HasPrefix(target, "mailto:"):
			d.external++
		case strings.HasPrefix(target, "#"):
			if !anchors[strings.TrimPrefix(target, "#")] {
				d.broken = append(d.broken, target)
			}
		default:
			file, frag, _ := strings.Cut(target, "#")
			dest := filepath.Join(filepath.Dir(path), file)
			if _, err := os.Stat(dest); err != nil {
				d.broken = append(d.broken, target)
				continue
			}
			if frag != "" && strings.HasSuffix(strings.ToLower(file), ".md") {
				destData, err := os.ReadFile(dest)
				if err != nil {
					d.broken = append(d.broken, target)
					continue
				}
				if !anchorsOf(stripCode(string(destData)))[frag] {
					d.broken = append(d.broken, target)
				}
			}
		}
	}
	return d, nil
}
