// Package benchjson maintains the repo's benchmark artifact files
// (BENCH_core.json, BENCH_approx.json): small JSON documents with one
// top-level key per benchmark family, refreshed in place by whichever
// benchmark ran last without clobbering its siblings' measurements.
package benchjson

import (
	"encoding/json"
	"os"
)

// Merge read-modify-writes one top-level key of the benchmark file at
// path. A missing or unparsable file starts fresh. Files written before
// the keyed schema existed hold one benchmark's payload at the top level;
// such a flat document is adopted under legacyKey rather than dropped, so
// the last pre-migration measurement survives the first keyed write.
func Merge(path, key, legacyKey string, payload any) error {
	doc := map[string]any{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil || doc[key] == nil && len(doc) > 0 && doc["benchmark"] != nil {
			doc = map[string]any{legacyKey: json.RawMessage(raw)}
		}
	}
	doc[key] = payload
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
