package transport

import (
	"net"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// TestBrokerSurvivesGarbage injects malformed bytes on a raw TCP
// connection; the broker must drop that client and keep serving others.
func TestBrokerSurvivesGarbage(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Raw connection writing junk.
	raw, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	// A well-behaved client still works.
	c, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("broker unhealthy after garbage: %v", err)
	}
}

// rawSession opens a bare TCP session with the broker, completes the
// CONNECT handshake and subscribes to each filter. Unlike a Client it
// never redials, so a test can hold, kill or abandon exactly this one
// session.
func rawSession(t *testing.T, addr string, filters ...string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameConnect, nil); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(conn); err != nil || typ != frameConnAck {
		t.Fatalf("connack: type %d, err %v", typ, err)
	}
	for _, f := range filters {
		if err := writeFrame(conn, frameSubscribe, encodeString(f)); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := readFrame(conn); err != nil || typ != frameSubAck {
			t.Fatalf("suback: type %d, err %v", typ, err)
		}
	}
	return conn
}

// TestBrokerDropsBadPublishKeepsConnection: a structurally-valid frame
// whose publish the broker cannot accept — a corrupt payload, a
// truncated delivery prefix, or an unversioned (v1) publish with no
// delivery identity to ack — is counted as dropped and not routed,
// without killing the session.
func TestBrokerDropsBadPublishKeepsConnection(t *testing.T) {
	reg := telemetry.NewRegistry()
	b, err := NewBrokerOpts("127.0.0.1:0", BrokerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make(chan Message, 4)
	b.SubscribeLocal("#", func(m Message) {
		m.Readings = append([]sensor.Reading(nil), m.Readings...)
		got <- m
	})

	raw := rawSession(t, b.Addr())
	defer raw.Close()
	one := []sensor.Reading{{Value: 1, Time: 1}}
	bad := []struct {
		typ     byte
		payload []byte
	}{
		// Corrupt body: declares a topic longer than the frame.
		{framePublishV2, []byte{7, 1, 200, 'x'}},
		// Delivery prefix cut off inside the epoch varint.
		{framePublishV2, []byte{0x80}},
		// A well-formed v1 publish: type 3 only flows broker to
		// subscriber.
		{framePublish, EncodePublish(Message{Topic: "/v1", Readings: one})},
	}
	for _, f := range bad {
		if err := writeFrame(raw, f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	// A valid publish on the same connection must still be routed, and
	// be the first thing routed, and be acknowledged.
	valid := EncodePublishV2(Message{Topic: "/ok", Readings: one, Epoch: 7, Seq: 1})
	if err := writeFrame(raw, framePublishV2, valid); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Topic != "/ok" || m.Epoch != 7 || m.Seq != 1 {
			t.Fatalf("routed %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("valid publish after bad ones was not routed")
	}
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, payload, err := readFrame(raw)
	if err != nil || typ != framePubAck {
		t.Fatalf("want PubAck, got type %d err %v", typ, err)
	}
	if e, s, err := decodePubAck(payload); err != nil || e != 7 || s != 1 {
		t.Fatalf("PubAck (%d, %d) err %v, want (7, 1)", e, s, err)
	}
	if n := b.Published(); n != 1 {
		t.Fatalf("routed %d messages, want 1", n)
	}
	if v, _ := reg.Value("dcdb_broker_publishes_dropped_total"); v != float64(len(bad)) {
		t.Fatalf("dropped = %v, want %d", v, len(bad))
	}
}

// TestSubscriberDisconnectDoesNotStallRouting: publishing continues for
// healthy subscribers when one subscriber's connection dies.
func TestSubscriberDisconnectDoesNotStallRouting(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	dead := rawSession(t, b.Addr(), "#")
	healthy, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	got := make(chan Message, 16)
	if err := healthy.Subscribe("#", func(m Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	// Kill the first subscriber abruptly.
	dead.Close()

	pub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if err := pub.Publish("/x", []sensor.Reading{{Value: 1, Time: 1}}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
			return // healthy subscriber still served
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("healthy subscriber starved after peer death")
		}
	}
}

// TestKillConnections: the chaos fault injector's connection killer must
// sever exactly the requested number of live sessions (all with n < 0),
// the victims must observe the break, and the broker must keep accepting
// fresh connections afterwards. Raw sessions keep the counts exact: a
// Client would redial (TestReliableRedeliveryAfterKill covers that).
func TestKillConnections(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	sessions := make([]net.Conn, 3)
	for i := range sessions {
		sessions[i] = rawSession(t, b.Addr())
		defer sessions[i].Close()
	}

	if n := b.KillConnections(1); n != 1 {
		t.Fatalf("KillConnections(1) = %d", n)
	}
	if n := b.KillConnections(-1); n != 2 {
		t.Fatalf("KillConnections(-1) after one kill = %d, want remaining 2", n)
	}

	// Every session observes the break: its next read fails.
	for _, s := range sessions {
		_ = s.SetReadDeadline(time.Now().Add(3 * time.Second))
		if _, _, err := readFrame(s); err == nil {
			t.Fatal("session still readable after KillConnections(-1)")
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("session not severed by KillConnections(-1)")
		}
	}

	// The broker itself survives: fresh sessions connect and publish.
	got := make(chan Message, 1)
	b.SubscribeLocal("#", func(m Message) {
		select {
		case got <- m:
		default:
		}
	})
	fresh, err := Dial(b.Addr())
	if err != nil {
		t.Fatalf("dial after kill: %v", err)
	}
	defer fresh.Close()
	if err := fresh.Publish("/alive", []sensor.Reading{{Value: 1, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Topic != "/alive" {
			t.Fatalf("routed %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("publish after kill not routed")
	}
	if n := b.KillConnections(-1); n != 1 {
		t.Fatalf("KillConnections(-1) with one fresh conn = %d", n)
	}
}
