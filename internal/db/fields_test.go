package db_test

import (
	"reflect"
	"sort"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// TestFieldsViewsAgree holds a view of a canonical section and a view of
// the same record as a map to one answer for every reader — Len, Get,
// Range, Map, Project — the zero view included, and pins that Range and
// Get over a section allocate nothing.
func TestFieldsViewsAgree(t *testing.T) {
	rec := map[string][]byte{"a": []byte("1"), "field0": []byte("100"), "m": {}, "z": []byte("last")}
	image := (&kvstore.VersionedRecord{Fields: rec}).Image()
	if canonical, err := db.CheckFields(image); err != nil || !canonical {
		t.Fatalf("image: canonical %v, %v", canonical, err)
	}
	views := map[string]db.Fields{"section": db.SectionFields(image), "map": db.MapFields(rec)}
	for name, v := range views {
		if v.Len() != len(rec) {
			t.Errorf("%s: Len = %d, want %d", name, v.Len(), len(rec))
		}
		for f, want := range rec {
			if got, ok := v.Get(f); !ok || string(got) != string(want) {
				t.Errorf("%s: Get(%q) = %q, %v", name, f, got, ok)
			}
		}
		for _, f := range []string{"", "b", "field", "zz"} {
			if got, ok := v.Get(f); ok {
				t.Errorf("%s: Get(%q) = %q, want none", name, f, got)
			}
		}
		var walked []string
		v.Range(func(f string, val []byte) bool {
			walked = append(walked, f+"="+string(val))
			return len(walked) < 2
		})
		if len(walked) != 2 {
			t.Errorf("%s: Range went on after fn returned false: %q", name, walked)
		}
		if got := v.Map(); !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: Map = %q, want %q", name, got, rec)
		}
		p := v.Project([]string{"z", "missing", "a"})
		if got := p.Map(); p.Len() != 2 || !reflect.DeepEqual(got, map[string][]byte{"a": []byte("1"), "z": []byte("last")}) {
			t.Errorf("%s: Project = %q", name, got)
		}
		if all := v.Project(nil); !reflect.DeepEqual(all.Map(), rec) {
			t.Errorf("%s: Project(nil) = %q", name, all.Map())
		}
	}
	var names []string
	views["section"].Range(func(f string, _ []byte) bool { names = append(names, f); return true })
	if !sort.StringsAreSorted(names) || len(names) != len(rec) {
		t.Errorf("section Range = %q, want every name in order", names)
	}
	var zero db.Fields
	if _, ok := zero.Get("a"); ok || zero.Len() != 0 || len(zero.Map()) != 0 {
		t.Error("the zero Fields has fields")
	}
	v := views["section"]
	if per := testing.AllocsPerRun(100, func() {
		v.Range(func(string, []byte) bool { return true })
		v.Get("z")
	}); per != 0 {
		t.Errorf("Range and Get over a section = %.0f allocs, want 0", per)
	}
}
