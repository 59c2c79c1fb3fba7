package rpc

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/trace"
)

// Ablation: raw RPC round-trip cost with and without injected link
// latency — the per-call floor the fig6 overheads rest on (and the
// RPCLatency constant in sharding.DefaultCostModel).
func BenchmarkRoundTrip(b *testing.B) {
	for _, tc := range []struct {
		name string
		prof func() (reqLink, respLink *netsim.Link)
	}{
		{"loopback-only", func() (*netsim.Link, *netsim.Link) { return nil, nil }},
		{"datacenter-links", func() (*netsim.Link, *netsim.Link) {
			p := netsim.DataCenter(1)
			return p.Request, p.Response
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			reqLink, respLink := tc.prof()
			srv, err := NewServer("127.0.0.1:0", HandlerFunc(func(ctx trace.Context, m string, body []byte) ([]byte, error) {
				return body, nil
			}), ServerConfig{ResponseLink: respLink, BoilerplateCost: 8 * time.Microsecond})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c, err := Dial(srv.Addr(), reqLink)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			body := make([]byte, 8192)
			var id atomic.Uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.CallSync(&Request{Method: "x", CallID: id.Add(1), Body: body}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: connection-pool width under concurrent fan-out (the queuing
// the pooled client exists to relieve). A sub-benchmark name ending in
// -<digits> would read as a GOMAXPROCS suffix to cmd/benchcheck, whose
// key would then change with the host's CPU count.
func BenchmarkPoolWidthFanOut(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", HandlerFunc(func(ctx trace.Context, m string, body []byte) ([]byte, error) {
		return body, nil
	}), ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	body := make([]byte, 16384)
	for _, width := range []int{1, 4} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			c, err := DialPool(srv.Addr(), nil, width)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			var id atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := c.CallSync(&Request{Method: "x", CallID: id.Add(1), Body: body}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// Ablation: codec throughput (request encode/decode round trip).
func BenchmarkRequestCodec(b *testing.B) {
	req := &Request{Method: "sparse.run", TraceID: 1, CallID: 2, Body: make([]byte, 32768)}
	b.SetBytes(int64(len(req.Body)))
	for i := 0; i < b.N; i++ {
		buf, err := EncodeRequest(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeRequest(buf); err != nil {
			b.Fatal(err)
		}
	}
}
