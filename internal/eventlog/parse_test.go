package eventlog

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestParserLayoutMatchesTypes keeps the parser in step with the types it
// decodes. A field added to Event, TaskRecord, PolicyRecord or EMRecord, or one
// renamed or moved, fails here until parse.go learns it, instead of
// quietly sending every record back through json.Unmarshal.
func TestParserLayoutMatchesTypes(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		keys []string
	}{
		{reflect.TypeOf(Event{}), eventKeys},
		{reflect.TypeOf(TaskRecord{}), taskKeys},
		{reflect.TypeOf(PolicyRecord{}), policyKeys},
		{reflect.TypeOf(EMRecord{}), emKeys},
	} {
		var encoded []string
		for i := 0; i < tc.typ.NumField(); i++ {
			key, opts, _ := strings.Cut(tc.typ.Field(i).Tag.Get("json"), ",")
			if opts != "" && opts != "omitempty" {
				t.Errorf("%s.%s: the parser does not know tag option %q", tc.typ.Name(), tc.typ.Field(i).Name, opts)
			}
			encoded = append(encoded, key)
		}
		if !reflect.DeepEqual(tc.keys, encoded) {
			t.Errorf("%s: the parser expects keys %q, but the type encodes %q", tc.typ.Name(), tc.keys, encoded)
		}
	}
}

// benchmarkShapedEvents is one event of every kind with IDs shaped like a
// benchmark history's, a finish that logged EM re-estimations, and one
// event with every field set (a finish, the only kind an em member may
// ride on).
func benchmarkShapedEvents() []Event {
	const run, worker, task = "t0-r000001", "t0-w0001", "t0-r000001-k0"
	tasks := []TaskRecord{{ID: task, Threshold: 5}, {ID: "t0-r000001-k1", Threshold: 7.25}}
	policy := &PolicyRecord{BudgetQuota: 1e6, EpochBudgetQuota: -1, MaxRuns: 4, Weight: 2}
	em := &EMRecord{Workers: []string{worker, "t0-w0002"},
		Params: [][3]float64{{1.0123456789012346, 1.7234567890123456e-05, 3.2101234567890123}, {0.9987, 0.3, 9}}}
	return []Event{
		{Kind: KindRegister, Worker: worker},
		{Kind: KindTenantPolicy, Tenant: "tenant0", Policy: policy},
		{Kind: KindOpenRun, Run: run, Tenant: "tenant0", Budget: 1500, Tasks: tasks},
		{Kind: KindBid, Run: run, Worker: worker, Cost: 1.37, Frequency: 3},
		{Kind: KindClose, Run: run},
		{Kind: KindScore, Run: run, Worker: worker, Task: task, Score: 6.5},
		{Kind: KindFinish, Run: run},
		{Kind: KindFinish, Run: run, EM: em},
		{Kind: KindFinish, Worker: worker, Task: task, Cost: 1.25, Frequency: 2, Score: 7.5,
			Budget: 1500, Tasks: tasks, Run: run, Tenant: "tenant0", Policy: policy, EM: em},
	}
}

// TestParserDecodesWriterOutput writes benchmark-shaped events through a
// Log and requires the parser, not the json.Unmarshal fallback, to decode
// every record, to the event json.Unmarshal gives. The last event sets
// every field of every type, which the test checks, so a field the parser
// misreads cannot go unnoticed.
func TestParserDecodesWriterOutput(t *testing.T) {
	lines := bytes.SplitAfter(encodeRecords(t, 0, benchmarkShapedEvents()...), []byte("\n"))
	lines = lines[:len(lines)-1]
	var e Event
	for _, line := range lines {
		var ok bool
		if e, ok = parseRecord(line); !ok {
			t.Fatalf("parser fell back to json.Unmarshal on the writer's record %s", line)
		}
		var want Event
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e, want) {
			t.Errorf("parser decoded %s as %+v, json.Unmarshal as %+v", line, e, want)
		}
	}
	for _, v := range []reflect.Value{reflect.ValueOf(e), reflect.ValueOf(e.Tasks[0]), reflect.ValueOf(*e.Policy), reflect.ValueOf(*e.EM)} {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Errorf("the full event leaves %s.%s unset", v.Type().Name(), v.Type().Field(i).Name)
			}
		}
	}
}
