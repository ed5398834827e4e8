package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/pbft"
	"repro/internal/types"
	"repro/internal/wire"
)

// wireStats is the codec cost of replaying a run's delivered blocks as
// the proposals that carried them.
type wireStats struct {
	encodeNs, decodeNs, decodeAllocs, bytes float64 // per message
	span                                    span
}

// wireReplay encodes and decodes every block as a pbft.PrePrepare through
// wire.Append and wire.Decode, repeating passes until each direction has
// run for at least minDur, and checks that each decoded block keeps its
// digest.
func wireReplay(blocks []*types.Block, minDur time.Duration, origin time.Time) (wireStats, error) {
	var st wireStats
	if len(blocks) == 0 {
		return st, fmt.Errorf("wire replay: no transaction-carrying blocks captured")
	}
	t0 := time.Now()
	msgs := make([]*pbft.PrePrepare, len(blocks))
	frames := make([][]byte, len(blocks))
	var total int
	for i, b := range blocks {
		msgs[i] = &pbft.PrePrepare{Instance: b.Instance, Seq: b.SN, Block: b}
		f, err := wire.Encode(msgs[i])
		if err != nil {
			return st, fmt.Errorf("wire replay: %w", err)
		}
		frames[i] = f
		total += len(f)
		got, err := wire.Decode(f)
		if err != nil {
			return st, fmt.Errorf("wire replay: %w", err)
		}
		pp, ok := got.(*pbft.PrePrepare)
		if !ok || pp.Block.Digest() != b.Digest() {
			return st, fmt.Errorf("wire replay: block (instance %d, seq %d) did not round-trip", b.Instance, b.SN)
		}
	}
	st.bytes = float64(total) / float64(len(blocks))

	buf := make([]byte, 0, 2*total/len(blocks))
	var n int
	start := time.Now()
	for time.Since(start) < minDur {
		for _, m := range msgs {
			buf, _ = wire.Append(buf[:0], m)
		}
		n += len(msgs)
	}
	st.encodeNs = float64(time.Since(start).Nanoseconds()) / float64(n)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	n = 0
	start = time.Now()
	for time.Since(start) < minDur {
		for _, f := range frames {
			_, _ = wire.Decode(f) // every frame decoded cleanly above
		}
		n += len(frames)
	}
	st.decodeNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	runtime.ReadMemStats(&ms1)
	st.decodeAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	st.span = span{Name: "wire.replay", Clock: "wall", Start: int64(t0.Sub(origin)), End: int64(time.Since(origin))}
	return st, nil
}
