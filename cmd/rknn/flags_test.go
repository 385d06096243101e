package main

import (
	"bytes"
	"context"
	"io"
	"maps"
	"slices"
	"strings"
	"testing"
)

// usageFlags parses a subcommand's -h output into flag name -> "type
// default". The flag package prints a default only when it is not the
// type's zero value, so an empty default stands for the zero value and any
// change of default shows up as a change of text.
func usageFlags(t *testing.T, usage string) map[string]string {
	t.Helper()
	out := map[string]string{}
	cur := ""
	for _, line := range strings.Split(usage, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				typ = "bool" // a bool flag prints no type
			}
			cur = name
			out[cur] = typ + " "
			continue
		}
		if i := strings.LastIndex(line, "(default "); cur != "" && i >= 0 && strings.HasSuffix(line, ")") {
			out[cur] += line[i+len("(default ") : len(line)-1]
		}
	}
	if len(out) == 0 {
		t.Fatalf("no flags in usage output:\n%s", usage)
	}
	return out
}

// TestEngineFlagsUnchanged pins the flag surface of the three subcommands
// that share the engine flags: every name, type and default, as the
// subcommands declared them before the ten shared flags were registered in
// one place.
func TestEngineFlagsUnchanged(t *testing.T) {
	engine := map[string]string{
		"data": `string "sequoia"`, "csv": "string ", "n": "int 5000", "dim": "int 128",
		"seed": "int 1", "backend": `string "covertree"`, "t": "float ", "auto": `string "mle"`,
		"plain": "bool ", "metric": "string ",
	}
	serving := map[string]string{
		"drain": "duration 10s", "trace-ring-size": "int 256", "trace-sample": "float 1",
	}
	with := func(sets ...map[string]string) map[string]string {
		out := map[string]string{}
		for _, s := range sets {
			maps.Copy(out, s)
		}
		return out
	}
	run := func(f func(io.Writer) error) string {
		var b bytes.Buffer
		if err := f(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		usage string
		want  map[string]string
	}{
		{"serve", run(func(w io.Writer) error { return runServe(ctx, []string{"-h"}, w, nil) }), with(engine, serving, map[string]string{
			"addr": `string ":8080"`, "data-dir": "string ", "debug-addr": "string ", "shards": "int 1",
			"slo-availability": "string ", "slo-latency": "string ", "slowlog-size": "int 128",
			"slowlog-threshold": "duration 250ms", "wal-sync": "int 1",
		})},
		{"shard-serve", run(func(w io.Writer) error { return runShardServe(ctx, []string{"-h"}, w, nil) }), with(engine, serving, map[string]string{
			"addr": `string ":8081"`, "shard": "int ", "shards": "int 1",
		})},
		{"save", run(func(w io.Writer) error { return runSave([]string{"-h"}, w) }), with(engine, map[string]string{
			"out": "string ", "shards": "int 1",
		})},
	} {
		got := usageFlags(t, c.usage)
		if !maps.Equal(got, c.want) {
			names := slices.Sorted(maps.Keys(with(got, c.want)))
			for _, n := range names {
				if got[n] != c.want[n] {
					t.Errorf("%s -%s: %q, want %q", c.name, n, got[n], c.want[n])
				}
			}
		}
	}
}
