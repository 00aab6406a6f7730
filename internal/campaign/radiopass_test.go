package campaign

import (
	"context"
	"reflect"
	"testing"

	"github.com/actfort/actfort/internal/obs"
)

// TestRadioPassesMatchOnePass holds the chunked radio stage to the
// single pass over the whole shard: for shards one subscriber either
// side of radioChunk and one of three chunks and five subscribers,
// under four radio keys (every session cracked, most abandoned to
// A5/3, a quarter of the channels covered, a leaked fintech segment),
// the passes must produce the same radioOut, field for field and
// intercepted word for word. The goldens' shards are one chunk long,
// so they cannot see a pass boundary.
func TestRadioPassesMatchOnePass(t *testing.T) {
	for _, shard := range []int{radioChunk - 1, radioChunk + 1, 3*radioChunk + 5} {
		eng, err := New(Config{Population: testPop(t, 2*shard, shard), KeyBits: 10, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"baseline", "a53-mix", "budget-4of16", "fintech-leaked"} {
			sc, ok := BuiltinScenario(name)
			if !ok {
				t.Fatalf("no built-in scenario %s", name)
			}
			norm, err := sc.normalize(0)
			if err != nil {
				t.Fatal(err)
			}
			m, err := eng.newMember(norm, "")
			if err != nil {
				t.Fatal(err)
			}
			r := &run{e: eng, members: []*member{m}}
			// The second shard, so subscriber indices do not start at 0.
			sh := eng.cfg.Population.Shard(1)
			sl := eng.checkout(context.Background())
			work0 := a51Work(t)
			one := r.radioPasses(m, sh, sl, len(sh.Subscribers))
			work1 := a51Work(t)
			sl.reset()
			chunked := r.radioPasses(m, sh, sl, radioChunk)
			work2 := a51Work(t)
			eng.release(sl)
			sh.Release()
			if one.sniffer.CracksSucceeded == 0 {
				t.Fatalf("%d-subscriber shard under %s cracked nothing: the comparison is vacuous", shard, name)
			}
			if !reflect.DeepEqual(one, chunked) {
				t.Errorf("%d-subscriber shard under %s: passes of %d differ from one pass\none pass %+v\npasses   %+v",
					shard, name, radioChunk, *one, *chunked)
			}
			// The same bursts on the same frames: the same table lookups
			// and fingerprints, however the batches are cut.
			for k := range work0 {
				if a, b := work1[k]-work0[k], work2[k]-work1[k]; a != b {
					t.Errorf("%d-subscriber shard under %s: %s +%v in one pass, +%v in passes", shard, name, a51WorkSeries[k], a, b)
				}
			}
		}
	}
}

// a51WorkSeries are the cracker's work counters that do not depend on
// how a trace is cut into FeedBatch calls.
var a51WorkSeries = []string{"a51_tmto_lookups_total", "a51_chain_fingerprints_total"}

// a51Work reads a51WorkSeries.
func a51Work(t *testing.T) []int64 {
	t.Helper()
	out := make([]int64, len(a51WorkSeries))
	for k, name := range a51WorkSeries {
		out[k] = counterValue(t, name)
	}
	return out
}

// counterValue reads one series of the process-wide registry.
func counterValue(t *testing.T, name string, labels ...obs.Label) int64 {
	t.Helper()
	v, ok := obs.Default.Value(name, labels...)
	if !ok {
		t.Fatalf("no series %s%v", name, labels)
	}
	return int64(v)
}

// TestRadioFootprint bounds a cold slot's radio buffers by one pass:
// after a cold 4,096-subscriber shard — four chunks, every victim
// targeted and covered, three sessions each — the slot's session
// batch and captures and the rig's session freelist and FeedBatch
// scratch hold at most one chunk's sessions, and every slice of the
// burst buffer at most one chunk's bursts, with half again for
// append's growth. A stage that gathered, encoded or fed the whole
// shard at once would hold four times that.
func TestRadioFootprint(t *testing.T) {
	const shard = 4 * radioChunk
	eng, err := New(Config{Population: testPop(t, shard, shard), KeyBits: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := runOn(t, eng, Scenario{Name: "baseline"})
	if sum.Sessions != 3*shard {
		t.Fatalf("baseline ran %d sessions over %d subscribers, want 3 each", sum.Sessions, shard)
	}
	sl := <-eng.slots
	defer func() { eng.slots <- sl }()
	if sl == nil || sl.bursts == nil {
		t.Fatal("the cold run left no built slot with a burst buffer")
	}
	maxSessions := 3 * radioChunk * 3 / 2
	maxBursts := maxSessions * int(eng.otpBursts)
	check := func(what string, n, max int) {
		t.Helper()
		t.Logf("%s: %d (bound %d)", what, n, max)
		if n > max {
			t.Errorf("%s holds %d, want at most %d: more than one pass of %d subscribers", what, n, max, radioChunk)
		}
	}
	check("slot session batch capacity", cap(sl.radio), maxSessions)
	check("slot captures capacity", cap(sl.captures), maxSessions)
	// The burst buffer and the rig keep their buffers unexported; read
	// their capacities through reflection.
	slices := func(what string, v reflect.Value, max int) {
		t.Helper()
		for f := range v.NumField() {
			if v.Field(f).Kind() == reflect.Slice {
				check(what+"."+v.Type().Field(f).Name+" capacity", v.Field(f).Cap(), max)
			}
		}
	}
	slices("burst buffer", reflect.ValueOf(sl.bursts).Elem(), maxBursts)
	rig := reflect.ValueOf(sl.rig).Elem()
	check("rig session freelist", rig.FieldByName("sessFree").Len(), maxSessions)
	fs := rig.FieldByName("fs")
	if fs.IsNil() {
		t.Fatal("the rig parked no FeedBatch scratch")
	}
	slices("rig FeedBatch scratch", fs.Elem(), maxBursts)
	check("rig FeedBatch scratch completed sessions capacity", fs.Elem().FieldByName("completed").Cap(), maxSessions)
}
