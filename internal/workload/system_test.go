package workload

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/updown"
)

// TestRunnerCacheKeysOnEveryConfigField walks every field of sim.Config,
// nested fields included, and changes one at a time: the cache must never
// hand a runner built for one configuration to another. A field added to
// sim.Config later is covered without editing the cache, and a field of a
// kind this test cannot change fails it.
func TestRunnerCacheKeysOnEveryConfigField(t *testing.T) {
	sys, err := NewSystem(KeyFor(topology.Spec{Family: "torus", A: 3, B: 3}, 0, core.PolicyBaseline, updown.RootMinID), nil)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.DefaultConfig()
	cache := NewRunnerCache(0)
	first, err := cache.Get(sys, base)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[*Runner]string{first: "the default config"}
	var walk func(typ reflect.Type, index []int, path string)
	walk = func(typ reflect.Type, index []int, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			idx := append(append([]int(nil), index...), i)
			name := path + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, idx, name+".")
				continue
			}
			cfg := base
			v := reflect.ValueOf(&cfg).Elem().FieldByIndex(idx)
			switch v.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Float32, reflect.Float64:
				v.SetFloat(v.Float() + 1)
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Pointer:
				v.Set(reflect.New(v.Type().Elem()))
			default:
				t.Fatalf("sim.Config.%s has kind %s, which this test cannot change", name, v.Kind())
			}
			r, err := cache.Get(sys, cfg)
			if err != nil {
				t.Fatalf("changing %s: %v", name, err)
			}
			if prev, ok := owner[r]; ok {
				t.Errorf("changing %s reused the runner built for %s", name, prev)
			}
			owner[r] = name
			if again, _ := cache.Get(sys, cfg); again != r {
				t.Errorf("changing %s: a second lookup built another runner", name)
			}
		}
	}
	walk(reflect.TypeOf(base), nil, "")
	if again, _ := cache.Get(sys, base); again != first {
		t.Error("the default config lost its runner")
	}
}

// TestSystemCacheConcurrent: goroutines that race on the same keys all get
// the one cached system per key, and a bounded cache stays within its
// bound.
func TestSystemCacheConcurrent(t *testing.T) {
	var keys []SystemKey
	for _, spec := range []string{"torus:3x3", "torus:3x4", "mesh:4x4", "gnm:12+4"} {
		sp, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, KeyFor(sp, 5, core.PolicyBaseline, updown.RootMinID))
	}
	for _, limit := range []int{0, 2} {
		c := NewSystemCache(limit, nil)
		got := make([][]*System, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, k := range keys {
					s, err := c.Get(k)
					if err != nil {
						t.Error(err)
					}
					got[g] = append(got[g], s)
				}
			}()
		}
		wg.Wait()
		if limit > 0 {
			if n := c.Len(); n > limit {
				t.Errorf("cache of limit %d holds %d systems", limit, n)
			}
			continue
		}
		for g := range got {
			for i := range keys {
				if got[g][i] != got[0][i] {
					t.Errorf("goroutine %d got another system for %v", g, keys[i])
				}
			}
		}
	}
}

// TestSystemCacheHoldsLastKeys: a bounded cache holds exactly the systems of
// its last limit distinct keys, whatever it held before, and keys that
// differ only in a seed their family ignores share one build. A key whose
// system an older key had cached counts as new, so that system is not
// dropped when the older key is forgotten.
func TestSystemCacheHoldsLastKeys(t *testing.T) {
	key := func(spec string, seed uint64) SystemKey {
		sp, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return KeyFor(sp, seed, core.PolicyBaseline, updown.RootMinID)
	}
	c := NewSystemCache(3, nil)
	get := func(k SystemKey) *System {
		s, err := c.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	torus := get(key("torus:3x3", 1))
	get(key("gnm:12+4", 1))
	get(key("gnm:12+5", 1))
	last := []SystemKey{key("torus:3x3", 9), key("gnm:12+4", 9), key("mesh:3x4", 9)}
	if s := get(last[0]); s != torus {
		t.Error("torus:3x3 under another seed built a second system")
	}
	for _, k := range last[1:] {
		get(k)
	}
	if n := c.Len(); n != len(last) {
		t.Errorf("cache holds %d systems after %d new keys, want %d", n, len(last), len(last))
	}
	for _, k := range last {
		if _, ok := c.systems[k.canonical()]; !ok {
			t.Errorf("the system of %v was dropped", k)
		}
	}
}
