package main

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// rawAnswer is a raw-readings /query response.
type rawAnswer struct {
	Sensor   string           `json:"sensor"`
	Count    int              `json:"count"`
	Readings []sensor.Reading `json:"readings"`
}

// aggAnswer is an aggregation (op=…) /query response.
type aggAnswer struct {
	Sensors  []aggSensor `json:"sensors"`
	Combined aggSensor   `json:"combined"`
}

type aggSensor struct {
	Sensor  string      `json:"sensor"`
	Count   int64       `json:"count"`
	Value   *float64    `json:"value"`
	Buckets []aggBucket `json:"buckets"`
}

type aggBucket struct {
	Start int64   `json:"start"`
	Count int64   `json:"count"`
	Value float64 `json:"value"`
}

// near reports whether a computed float matches the expected one: sums
// and means may be accumulated in a different order than the reference.
func near(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

// checkRaw verifies a raw answer for topic i over seconds [k0, k1]
// against the generated readings; the newest `slack` seconds may still
// be in flight.
func checkRaw(body []byte, sp *space, i int, k0, k1 int64, slack int64) error {
	var a rawAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decoding raw answer: %w", err)
	}
	n := int64(len(a.Readings))
	if a.Sensor != string(sp.topics[i]) || int64(a.Count) != n || n > k1-k0+1 || n < k1-k0+1-slack {
		return fmt.Errorf("raw answer for %s: %d readings over [%d, %d]", sp.topics[i], n, k0, k1)
	}
	for j, r := range a.Readings {
		if r != sp.reading(i, k0+int64(j)) {
			return fmt.Errorf("raw answer for %s: reading %d is %+v", sp.topics[i], j, r)
		}
	}
	return nil
}

// reduce folds the generated readings of topic i over seconds [k0, k1].
func reduce(sp *space, i int, k0, k1 int64) store.AggResult {
	var a store.AggResult
	for k := k0; k <= k1; k++ {
		a.Observe(sp.value(i, k))
	}
	return a
}

// sameValue compares a rendered value with the reference reduction.
func sameValue(got float64, want store.AggResult, op store.AggOp) bool {
	w, ok := want.Value(op)
	if !ok {
		return false
	}
	switch op {
	case store.AggMin, store.AggMax, store.AggCount:
		return got == w
	}
	return near(got, w)
}
