package main

import (
	"math"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/cluster"
)

// sensorNames are the 32 per-node sensors of the CooLMUC-3-shaped topic
// space: /rNN/cNN/sNN/<sensor>. The counters are monotonic (perfmetrics
// differentiates them); everything else is a gauge.
var sensorNames = [32]string{
	"power", "temp", "energy", "idle-time", "freq-scale", "cpu-cycles",
	"instructions", "cache-misses", "flops", "vector-ops", "mem-used", "mem-bw",
	"net-rx", "net-tx", "ib-rx", "ib-tx", "disk-read", "disk-write",
	"fan0", "fan1", "fan2", "fan3", "volt-cpu0", "volt-cpu1",
	"volt-mem", "temp-cpu0", "temp-cpu1", "temp-mem", "temp-inlet", "temp-outlet",
	"load1", "procs",
}

// counterSensors marks the monotonic counters among sensorNames.
var counterSensors = map[string]bool{
	"energy": true, "cpu-cycles": true, "instructions": true, "cache-misses": true,
	"flops": true, "vector-ops": true,
}

// space is the generated topic space of one run: nodes × 32 sensors,
// node-major (topic i belongs to node i/32).
type space struct {
	seed    int64
	nodes   []sensor.Topic
	topics  []sensor.Topic
	counter []bool
}

// newSpace builds the first n nodes of the CooLMUC-3 topology.
func newSpace(seed int64, n int) *space {
	all := cluster.CooLMUC3().NodePaths()
	if n > len(all) {
		n = len(all)
	}
	sp := &space{seed: seed, nodes: all[:n]}
	for _, node := range sp.nodes {
		for _, s := range sensorNames {
			sp.topics = append(sp.topics, node.Join(s))
			sp.counter = append(sp.counter, counterSensors[s])
		}
	}
	return sp
}

// mix is splitmix64: the benchmark's only source of per-reading noise,
// so that any reading can be regenerated from (seed, topic, second).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash3 mixes a seed and two indexes.
func hash3(seed int64, a, b int64) uint64 {
	return mix(uint64(seed) ^ mix(uint64(a)+0x632be59bd9b4e019) ^ mix(uint64(b)*0x85ebca6b+1))
}

// value is the reading of topic i at second k. Gauges are a slow sine
// plus noise quantised to 0.1 (compressible like real sensor data);
// counters grow by roughly 2e9 per second plus bounded noise, so every
// delta is positive.
func (sp *space) value(i int, k int64) float64 {
	h := hash3(sp.seed, int64(i), k)
	if sp.counter[i] {
		rate := 1.5e9 + float64(i%7)*1e8
		return float64(k)*rate + float64(h%10_000_000)
	}
	base := 50 + float64(i%97)*3
	s := math.Sin(float64(k)/float64(120+i%300)) * 10
	noise := float64(h%21) / 10
	return math.Round((base+s+noise)*10) / 10
}

// reading is value(i, k) stamped at second k.
func (sp *space) reading(i int, k int64) sensor.Reading {
	return sensor.Reading{Value: sp.value(i, k), Time: k * 1e9}
}

// fill appends the readings of topic i for seconds [k0, k0+n).
func (sp *space) fill(dst []sensor.Reading, i int, k0 int64, n int) []sensor.Reading {
	for j := 0; j < n; j++ {
		dst = append(dst, sp.reading(i, k0+int64(j)))
	}
	return dst
}

// baseSecond is the first simulated second of a run: a fixed epoch
// moved by the seed, so different seeds also store different timestamps.
func baseSecond(seed int64) int64 {
	return 1_700_000_000 + (seed%1000)*86_400
}
