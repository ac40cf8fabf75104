package window

import (
	"fmt"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/sketch"
	"cocosketch/internal/tasks"
)

// Standing subscriptions: a subscriber registers a predicate over
// freshly sealed epochs (heavy hitters above a mass fraction, heavy
// changes between consecutive epochs, entropy collapse under a mask)
// and a channel; Seal evaluates every registered subscription against
// the epoch it just published and pushes one Event per firing. Pushes
// never block the sealer: a full channel drops the event and counts it
// in "window.events_dropped" — subscribers that must not miss events
// size their channel accordingly.

// Kind selects what a subscription watches for.
type Kind uint8

// The subscription kinds evaluated at each seal.
const (
	// HeavyHitter fires when any partial-key flow under Mask reaches
	// Fraction of the sealed epoch's total mass.
	HeavyHitter Kind = iota
	// HeavyChange fires when any partial-key flow's mass changes by at
	// least Fraction of the two consecutive epochs' combined mass
	// (|w2 - w1| >= Fraction × (total1 + total2), the heavy-change
	// definition of internal/tasks). Needs a previous sealed epoch.
	HeavyChange
	// Entropy fires when the normalized entropy of the epoch's mass
	// distribution under Mask drops to MaxEntropy or below — the
	// concentration signature of a flood.
	Entropy
)

// String names the kind for logs and event rendering.
func (k Kind) String() string {
	switch k {
	case HeavyHitter:
		return "heavy-hitter"
	case HeavyChange:
		return "heavy-change"
	case Entropy:
		return "entropy"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Subscription describes one standing query evaluated at every seal.
type Subscription struct {
	// Kind selects the predicate.
	Kind Kind
	// Mask is the partial key the epoch table is grouped under before
	// the predicate runs.
	Mask flowkey.Mask
	// Fraction parameterizes HeavyHitter and HeavyChange thresholds as
	// a fraction of epoch mass (see Kind docs).
	Fraction float64
	// MaxEntropy is the Entropy firing bound: fire when the normalized
	// entropy is <= MaxEntropy.
	MaxEntropy float64
	// Limit caps the flows attached to one event (default 10 when 0).
	Limit int
}

// Event is one subscription firing, delivered on the subscriber's
// channel.
type Event struct {
	// SubID identifies the subscription (the value Subscribe returned).
	SubID int
	// Kind echoes the subscription kind.
	Kind Kind
	// Epoch is the freshly sealed epoch that fired.
	Epoch uint64
	// Mask echoes the subscription mask.
	Mask flowkey.Mask
	// Threshold is the absolute mass threshold the firing flows beat
	// (HeavyHitter/HeavyChange; 0 for Entropy).
	Threshold uint64
	// Flows are the offending partial-key flows, largest first, capped
	// at the subscription's Limit. For HeavyChange the size is the
	// absolute mass change.
	Flows []sketch.Entry[flowkey.FiveTuple]
	// Entropy is the epoch's normalized entropy (Entropy kind only).
	Entropy float64
}

// subscriber pairs a subscription with its delivery channel.
type subscriber struct {
	id  int
	sub Subscription
	ch  chan<- Event
}

// Subscribe registers a standing subscription; events are pushed to ch
// at each seal (non-blocking — a full channel drops the event). A seal
// evaluates the subscriptions in Subscribe order, so the events of one
// seal on one channel arrive in that order. The returned id
// unregisters it via Unsubscribe.
func (r *Ring) Subscribe(sub Subscription, ch chan<- Event) int {
	if ch == nil {
		panic("window: Subscribe needs a channel")
	}
	if sub.Limit <= 0 {
		sub.Limit = 10
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextSub++
	id := r.nextSub
	r.subs[id] = &subscriber{id: id, sub: sub, ch: ch}
	r.tel.subsActive.Set(int64(len(r.subs)))
	return id
}

// Unsubscribe removes a subscription. Safe to call with an unknown or
// already removed id. Events already being evaluated by a concurrent
// Seal may still arrive on the channel after Unsubscribe returns.
func (r *Ring) Unsubscribe(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.subs, id)
	r.tel.subsActive.Set(int64(len(r.subs)))
}

// notify evaluates subscriptions against the freshly sealed epoch.
// Runs outside the ring mutex; sealed/prev are immutable.
func (r *Ring) notify(subs []*subscriber, sealed, prev *Sealed) {
	for _, s := range subs {
		if ev, fire := evaluate(s.sub, sealed, prev); fire {
			ev.SubID = s.id
			select {
			case s.ch <- ev:
				r.tel.eventsPushed.Inc()
			default:
				r.tel.eventsDropped.Inc()
			}
		}
	}
}

// evaluate runs one subscription predicate over the sealed epoch's
// view under the subscription mask and reports whether it fires.
func evaluate(sub Subscription, sealed, prev *Sealed) (Event, bool) {
	ev := Event{Kind: sub.Kind, Epoch: sealed.Epoch, Mask: sub.Mask}
	cur := grouped(sealed, sub.Mask)
	switch sub.Kind {
	case HeavyHitter:
		thr := tasks.Threshold(sketch.TotalWeight(cur), sub.Fraction)
		hh := tasks.HeavyHitters(cur, thr)
		if len(hh) == 0 {
			return ev, false
		}
		ev.Threshold = thr
		ev.Flows = sketch.TopK(hh, sub.Limit)
		return ev, true
	case HeavyChange:
		if prev == nil {
			return ev, false
		}
		w1 := grouped(prev, sub.Mask)
		thr := tasks.Threshold(sketch.TotalWeight(w1)+sketch.TotalWeight(cur), sub.Fraction)
		hc := tasks.HeavyChanges(w1, cur, thr)
		if len(hc) == 0 {
			return ev, false
		}
		ev.Threshold = thr
		ev.Flows = sketch.TopK(hc, sub.Limit)
		return ev, true
	case Entropy:
		e := tasks.NormalizedEntropy(cur)
		if e > sub.MaxEntropy {
			return ev, false
		}
		ev.Entropy = e
		ev.Flows = sketch.TopK(cur, sub.Limit)
		return ev, true
	}
	return ev, false
}

// grouped returns one epoch's table under m, read from its view: the
// one kept at seal while m is in use, else one built for this call.
func grouped(s *Sealed, m flowkey.Mask) map[flowkey.FiveTuple]uint64 {
	v := s.view(m, false)
	return table(v.keys, v.sums)
}
