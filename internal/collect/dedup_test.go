package collect

import (
	"fmt"
	"testing"

	"github.com/dcdb/wintermute/internal/sensor"
)

func TestDedupAdmit(t *testing.T) {
	d := newDedup()
	// Fresh sequences admit, replays do not.
	if !d.admit(7, "/a", 1) || !d.admit(7, "/a", 2) {
		t.Fatal("fresh sequences rejected")
	}
	if d.admit(7, "/a", 2) || d.admit(7, "/a", 1) {
		t.Fatal("replayed sequence admitted")
	}
	if !d.admit(7, "/a", 5) {
		t.Fatal("sequence after gap rejected (gaps are legal)")
	}
	// Marks are per topic and per epoch.
	if !d.admit(7, "/b", 1) {
		t.Fatal("other topic blocked by /a's mark")
	}
	if !d.admit(8, "/a", 1) {
		t.Fatal("other epoch blocked by epoch 7's mark")
	}
	// Epoch 0 gets no bypass: a forged frame repeating (0, topic, seq)
	// is deduplicated like any other epoch.
	if !d.admit(0, "/a", 3) {
		t.Fatal("fresh epoch-0 batch rejected")
	}
	if d.admit(0, "/a", 3) {
		t.Fatal("repeated epoch-0 batch admitted")
	}
}

func TestDedupEviction(t *testing.T) {
	d := newDedup()
	for i := 1; i <= maxDedupEpochs+10; i++ {
		if !d.admit(uint64(i), "/t", 1) {
			t.Fatalf("epoch %d rejected", i)
		}
	}
	if got := d.size(); got != maxDedupEpochs {
		t.Fatalf("tracked %d epochs, want cap %d", got, maxDedupEpochs)
	}
	// The oldest epochs were evicted; a replay from one is re-admitted
	// (duplicate, not loss — the documented failure direction).
	if !d.admit(1, "/t", 1) {
		t.Fatal("evicted epoch's replay rejected")
	}
	// Recently active epochs keep their marks.
	if d.admit(maxDedupEpochs+10, "/t", 1) {
		t.Fatal("live epoch's replay admitted")
	}
}

func TestDedupManyTopics(t *testing.T) {
	d := newDedup()
	for i := 0; i < 100; i++ {
		topic := sensor.Topic(fmt.Sprintf("/node%d/power", i))
		for seq := uint64(1); seq <= 3; seq++ {
			if !d.admit(42, topic, seq) {
				t.Fatalf("fresh (%s, %d) rejected", topic, seq)
			}
		}
		if d.admit(42, topic, 3) {
			t.Fatalf("replayed (%s, 3) admitted", topic)
		}
	}
}
