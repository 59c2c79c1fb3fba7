// Package netsim injects synthetic network latency into the RPC transport.
//
// The characterization in the paper runs on servers "located in the same
// data centers as production recommendation ranking" over the standard
// TCP/IP stack; intra-data-center one-way latencies are in the tens to
// hundreds of microseconds and, per Section VI-B2, "for all distributed
// inference configurations, network latency was greater than operator
// latency". A loopback socket alone is too fast to reproduce that regime,
// so each link adds a deterministic (seeded) delay composed of a base
// propagation/switching term, bounded jitter, and a bytes/bandwidth
// serialization term. Sender-side injection before the frame write models
// the in-kernel packet processing and forwarding time the paper includes
// in its network attribution: the rpc layer hands each frame write to
// AfterFunc with the link's Delay, and a nil link delays nothing, so
// unconfigured paths run at raw loopback speed. The delays are delivered
// by one process-wide timer wheel (wheel.go) because time.Sleep
// overshoots by a millisecond or more, which would swamp the
// tens-to-hundreds of microseconds an intra-DC hop takes.
package netsim

import (
	"math/rand"
	"sync"
	"time"
)

// Link models one direction of a network path.
type Link struct {
	// Base is the fixed one-way latency.
	Base time.Duration
	// Jitter is the maximum additional uniform random delay.
	Jitter time.Duration
	// BytesPerSec is the serialization bandwidth; zero disables the term.
	BytesPerSec float64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewLink builds a link with a deterministic jitter stream.
func NewLink(base, jitter time.Duration, bytesPerSec float64, seed int64) *Link {
	return &Link{
		Base:        base,
		Jitter:      jitter,
		BytesPerSec: bytesPerSec,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// Delay computes the injected latency for a message of n bytes.
func (l *Link) Delay(n int) time.Duration {
	if l == nil {
		return 0
	}
	d := l.Base
	if l.Jitter > 0 {
		l.mu.Lock()
		d += time.Duration(l.rng.Int63n(int64(l.Jitter) + 1))
		l.mu.Unlock()
	}
	if l.BytesPerSec > 0 {
		d += time.Duration(float64(n) / l.BytesPerSec * float64(time.Second))
	}
	return d
}

// Profile bundles the per-direction links of one shard-to-shard path.
type Profile struct {
	// Request is applied to caller→callee frames.
	Request *Link
	// Response is applied to callee→caller frames.
	Response *Link
}

// DataCenter returns a latency profile for an intra-DC hop. The host's
// real (sandboxed) TCP stack already contributes a few hundred
// microseconds per round trip — which plays the role of in-kernel packet
// processing the paper includes in its network attribution — so the
// injected component is a modest base plus jitter plus a 10 Gb/s
// serialization term, seeded deterministically per link.
func DataCenter(seed int64) Profile {
	const gbps10 = 10e9 / 8
	return Profile{
		Request:  NewLink(80*time.Microsecond, 40*time.Microsecond, gbps10, seed),
		Response: NewLink(80*time.Microsecond, 40*time.Microsecond, gbps10, seed+1),
	}
}

// Slow returns a profile with ~2.5× the data-center base latency and less
// bandwidth, used for the SC-Small platform which the paper notes has
// "less network bandwidth than SC-Large".
func Slow(seed int64) Profile {
	const gbps25 = 2.5e9 / 8
	return Profile{
		Request:  NewLink(200*time.Microsecond, 100*time.Microsecond, gbps25, seed),
		Response: NewLink(200*time.Microsecond, 100*time.Microsecond, gbps25, seed+1),
	}
}
