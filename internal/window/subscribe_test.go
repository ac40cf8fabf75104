package window_test

// Subscription-plane semantics: heavy-hitter, heavy-change and entropy
// predicates evaluated at each seal, non-blocking delivery, and
// unsubscribe.

import (
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/window"
)

// flowSketch builds an epoch sketch holding the given flows.
func flowSketch(flows map[flowkey.FiveTuple]uint64) *core.Basic[flowkey.FiveTuple] {
	sk := core.NewBasic[flowkey.FiveTuple](testConfig)
	for k, v := range flows {
		sk.Insert(k, v)
	}
	return sk
}

// tuple builds a distinct 5-tuple from a small id.
func tuple(id int) flowkey.FiveTuple {
	return flowkey.FiveTuple{
		SrcIP:   [4]byte{10, 0, byte(id >> 8), byte(id)},
		DstIP:   [4]byte{192, 168, 0, byte(id)},
		SrcPort: uint16(1000 + id),
		DstPort: 53,
		Proto:   17,
	}
}

func TestHeavyHitterSubscription(t *testing.T) {
	r := window.NewRing(4, testConfig)
	ch := make(chan window.Event, 8)
	mask := flowkey.MaskFields(flowkey.FieldSrcIP)
	id := r.Subscribe(window.Subscription{Kind: window.HeavyHitter, Mask: mask, Fraction: 0.5}, ch)

	// Epoch 0: no flow holds half the mass — no event.
	if err := r.Seal(0, flowSketch(map[flowkey.FiveTuple]uint64{
		tuple(1): 10, tuple(2): 10, tuple(3): 10,
	})); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		t.Fatalf("unexpected event %+v", ev)
	default:
	}

	// Epoch 1: tuple(1) dominates — one event naming it.
	if err := r.Seal(1, flowSketch(map[flowkey.FiveTuple]uint64{
		tuple(1): 900, tuple(2): 10, tuple(3): 10,
	})); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.Kind != window.HeavyHitter || ev.Epoch != 1 || ev.SubID != id {
			t.Fatalf("event = %+v, want heavy-hitter at epoch 1", ev)
		}
		if len(ev.Flows) == 0 || ev.Flows[0].Key != mask.Apply(tuple(1)) {
			t.Fatalf("event flows = %v, want the dominant source first", ev.Flows)
		}
		if ev.Flows[0].Size < ev.Threshold {
			t.Fatalf("flow size %d below threshold %d", ev.Flows[0].Size, ev.Threshold)
		}
	default:
		t.Fatal("heavy-hitter event not delivered")
	}
}

func TestHeavyChangeSubscription(t *testing.T) {
	r := window.NewRing(4, testConfig)
	ch := make(chan window.Event, 8)
	mask := flowkey.MaskFields(flowkey.FieldDstIP)
	r.Subscribe(window.Subscription{Kind: window.HeavyChange, Mask: mask, Fraction: 0.25}, ch)

	// First epoch: no previous epoch, never fires.
	if err := r.Seal(0, flowSketch(map[flowkey.FiveTuple]uint64{tuple(1): 100, tuple(2): 100})); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		t.Fatalf("heavy-change fired with no previous epoch: %+v", ev)
	default:
	}

	// Second epoch: tuple(2)'s destination surges 100 → 900.
	if err := r.Seal(1, flowSketch(map[flowkey.FiveTuple]uint64{tuple(1): 100, tuple(2): 900})); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.Kind != window.HeavyChange || ev.Epoch != 1 {
			t.Fatalf("event = %+v, want heavy-change at epoch 1", ev)
		}
		if len(ev.Flows) == 0 || ev.Flows[0].Key != mask.Apply(tuple(2)) {
			t.Fatalf("event flows = %v, want the surging destination first", ev.Flows)
		}
		if ev.Flows[0].Size != 800 {
			t.Fatalf("change magnitude = %d, want 800", ev.Flows[0].Size)
		}
	default:
		t.Fatal("heavy-change event not delivered")
	}
}

func TestEntropySubscription(t *testing.T) {
	r := window.NewRing(4, testConfig)
	ch := make(chan window.Event, 8)
	mask := flowkey.MaskFields(flowkey.FieldDstIP)
	r.Subscribe(window.Subscription{Kind: window.Entropy, Mask: mask, MaxEntropy: 0.3}, ch)

	// Balanced epoch: entropy high, no event.
	balanced := make(map[flowkey.FiveTuple]uint64)
	for i := 0; i < 16; i++ {
		balanced[tuple(i)] = 100
	}
	if err := r.Seal(0, flowSketch(balanced)); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		t.Fatalf("entropy fired on a balanced epoch: %+v", ev)
	default:
	}

	// Concentrated epoch: one destination takes nearly everything.
	skewed := map[flowkey.FiveTuple]uint64{tuple(1): 100_000, tuple(2): 10, tuple(3): 10}
	if err := r.Seal(1, flowSketch(skewed)); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.Kind != window.Entropy || ev.Epoch != 1 {
			t.Fatalf("event = %+v, want entropy collapse at epoch 1", ev)
		}
		if ev.Entropy > 0.3 {
			t.Fatalf("event entropy %.3f above the bound", ev.Entropy)
		}
		if len(ev.Flows) == 0 || ev.Flows[0].Key != mask.Apply(tuple(1)) {
			t.Fatalf("event flows = %v, want the concentrated destination first", ev.Flows)
		}
	default:
		t.Fatal("entropy event not delivered")
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	r := window.NewRing(4, testConfig)
	ch := make(chan window.Event, 8)
	id := r.Subscribe(window.Subscription{Kind: window.HeavyHitter, Mask: flowkey.MaskFields(flowkey.FieldSrcIP), Fraction: 0.5}, ch)
	r.Unsubscribe(id)
	r.Unsubscribe(id) // idempotent
	if err := r.Seal(0, flowSketch(map[flowkey.FiveTuple]uint64{tuple(1): 1000})); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		t.Fatalf("event delivered after Unsubscribe: %+v", ev)
	default:
	}
}

func TestFullChannelDropsEventNonBlocking(t *testing.T) {
	reg := telemetry.New()
	r := window.NewRing(8, testConfig).SetTelemetry(reg)
	ch := make(chan window.Event, 1) // fills after the first seal
	r.Subscribe(window.Subscription{Kind: window.HeavyHitter, Mask: flowkey.MaskFields(flowkey.FieldSrcIP), Fraction: 0.5}, ch)
	for e := uint64(0); e < 3; e++ {
		// Every epoch fires; only the first delivery fits. Seal must
		// not block.
		if err := r.Seal(e, flowSketch(map[flowkey.FiveTuple]uint64{tuple(1): 1000})); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["window.events_pushed"]; got != 1 {
		t.Fatalf("events_pushed = %d, want 1", got)
	}
	if got := snap.Counters["window.events_dropped"]; got != 2 {
		t.Fatalf("events_dropped = %d, want 2", got)
	}
	if got := snap.Gauges["window.subs_active"]; got != 1 {
		t.Fatalf("subs_active = %d, want 1", got)
	}
}

func TestSubscriptionLimitCapsFlows(t *testing.T) {
	r := window.NewRing(4, testConfig)
	ch := make(chan window.Event, 4)
	flows := make(map[flowkey.FiveTuple]uint64)
	for i := 0; i < 20; i++ {
		flows[tuple(i)] = 100 // every flow is a "heavy hitter" at fraction 0
	}
	r.Subscribe(window.Subscription{Kind: window.HeavyHitter, Mask: flowkey.MaskFields(flowkey.FieldSrcIP), Fraction: 0.01, Limit: 3}, ch)
	if err := r.Seal(0, flowSketch(flows)); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if len(ev.Flows) != 3 {
			t.Fatalf("event carries %d flows, want the Limit of 3", len(ev.Flows))
		}
	default:
		t.Fatal("event not delivered")
	}
}

// TestSubscriptionEventsArriveInSubscribeOrder pins the order of one
// seal's events: two subscriptions that both fire on one seal into one
// channel deliver their events in Subscribe order, on every run and
// whichever kind subscribed first. Evaluated in the order of a map
// range, each run would pass with even odds.
func TestSubscriptionEventsArriveInSubscribeOrder(t *testing.T) {
	mask := flowkey.MaskFields(flowkey.FieldDstIP)
	heavy := window.Subscription{Kind: window.HeavyHitter, Mask: mask, Fraction: 0.5}
	collapse := window.Subscription{Kind: window.Entropy, Mask: mask, MaxEntropy: 0.3}
	epoch := flowSketch(map[flowkey.FiveTuple]uint64{tuple(1): 100_000, tuple(2): 10, tuple(3): 10})
	for run := 0; run < 32; run++ {
		first, second := heavy, collapse
		if run%2 == 1 {
			first, second = collapse, heavy
		}
		r := window.NewRing(4, testConfig)
		ch := make(chan window.Event, 2)
		ids := []int{r.Subscribe(first, ch), r.Subscribe(second, ch)}
		if err := r.Seal(0, epoch); err != nil {
			t.Fatal(err)
		}
		for i, want := range []window.Subscription{first, second} {
			select {
			case ev := <-ch:
				if ev.SubID != ids[i] || ev.Kind != want.Kind {
					t.Fatalf("run %d: event %d is subscription %d (%s), want %d (%s)",
						run, i, ev.SubID, ev.Kind, ids[i], want.Kind)
				}
			default:
				t.Fatalf("run %d: %d of 2 events delivered", run, i)
			}
		}
	}
}
