package main

import (
	"bytes"
	"fmt"
	"slices"

	"stochstream/internal/shardrt"
	"stochstream/internal/streamd/wire"
)

// pairRec is one delivered pair in the form both the daemon's wire.Pair and
// the runtime's shardrt.Pair reduce to, so one oracle checks either source.
type pairRec struct {
	rseq, sseq uint64
	rkey, skey int64
	shard      uint16
	same       bool
	rpay, spay []byte
}

func fromWire(p *wire.Pair) pairRec {
	return pairRec{p.RSeq, p.SSeq, p.RKey, p.SKey, p.Shard, p.SameStep, p.RPayload, p.SPayload}
}

func fromDirect(p *shardrt.Pair) pairRec {
	rp, _ := p.R.Payload.([]byte)
	sp, _ := p.S.Payload.([]byte)
	return pairRec{p.RSeq, p.SSeq, int64(p.R.Key), int64(p.S.Key), uint16(p.Shard), p.SameStep, rp, sp}
}

// trigger is the merge key of a pair: the later of its two arrivals, then
// the earlier. The runtime orders every reply by it.
func (p *pairRec) trigger() (trig, partner uint64) {
	if p.rseq >= p.sseq {
		return p.rseq, p.sseq
	}
	return p.sseq, p.rseq
}

// checker is the per-pair output oracle. Every delivered pair must have
// equal keys, sequence numbers of the right parity that map back to the
// steps that carried those keys (and payloads), no arrival from the future,
// and a merge key strictly above the previous pair of the same reply —
// which makes (RSeq, SSeq) unique within a reply. Uniqueness across replies
// is checked offline on the direct replay the daemon's output is compared
// with (see replayOracle).
type checker struct {
	in       *inputs
	scratch  []pairRec
	failures int
	first    []string

	// lo/hi delimit a range of sequence numbers; inRange counts the pairs
	// whose trigger lies in it, nonSame those of them that are not the two
	// arrivals of one shard step (the subset a policy can influence).
	lo, hi  uint64
	inRange int
	nonSame int
	total   int
}

func (c *checker) failf(format string, a ...interface{}) {
	c.failures++
	if len(c.first) < 5 {
		c.first = append(c.first, fmt.Sprintf(format, a...))
	}
}

// reply checks one reply, delivered when sent steps had been ingested, and
// returns its digest.
func (c *checker) reply(recs []pairRec, sent int) uint64 {
	horizon := uint64(2 * sent)
	var lastTrig, lastPart uint64
	dig := uint64(len(recs))
	for i := range recs {
		p := &recs[i]
		trig, part := p.trigger()
		switch {
		case p.rkey != p.skey:
			c.failf("pair (%d,%d): keys differ: %d vs %d", p.rseq, p.sseq, p.rkey, p.skey)
		case p.rseq&1 != 0 || p.sseq&1 != 1:
			c.failf("pair (%d,%d): sequence parity is not (R even, S odd)", p.rseq, p.sseq)
		case trig >= horizon:
			c.failf("pair (%d,%d): arrival beyond the %d steps sent", p.rseq, p.sseq, sent)
		case int64(c.in.key(0, int(p.rseq/2))) != p.rkey || int64(c.in.key(1, int(p.sseq/2))) != p.skey:
			c.failf("pair (%d,%d): key %d was not carried by those steps", p.rseq, p.sseq, p.rkey)
		case !bytes.Equal(p.rpay, c.in.payloadOf(0, int(p.rseq/2))) || !bytes.Equal(p.spay, c.in.payloadOf(1, int(p.sseq/2))):
			c.failf("pair (%d,%d): payload is not the one sent", p.rseq, p.sseq)
		case i > 0 && (trig < lastTrig || (trig == lastTrig && part <= lastPart)):
			c.failf("pair (%d,%d): out of merge order or duplicated within its reply", p.rseq, p.sseq)
		}
		lastTrig, lastPart = trig, part
		if trig >= c.lo && trig < c.hi {
			c.inRange++
			if !p.same {
				c.nonSame++
			}
		}
		dig = digestPair(dig, p)
	}
	c.total += len(recs)
	return dig
}

func (c *checker) wireReply(pairs []wire.Pair, sent int) uint64 {
	c.scratch = c.scratch[:0]
	for i := range pairs {
		c.scratch = append(c.scratch, fromWire(&pairs[i]))
	}
	return c.reply(c.scratch, sent)
}

func (c *checker) directReply(pairs []shardrt.Pair, sent int) uint64 {
	c.scratch = c.scratch[:0]
	for i := range pairs {
		c.scratch = append(c.scratch, fromDirect(&pairs[i]))
	}
	return c.reply(c.scratch, sent)
}

// digestPair folds a pair's fixed fields into an FNV-style running hash;
// payloads are compared against the inputs directly, not hashed.
func digestPair(h uint64, p *pairRec) uint64 {
	const prime = 0x100000001B3
	same := uint64(0)
	if p.same {
		same = 1
	}
	for _, w := range [...]uint64{p.rseq, p.sseq, uint64(p.rkey), uint64(p.skey), uint64(p.shard)<<1 | same} {
		h = (h ^ w) * prime
	}
	return h
}

// uniquePairs reports the first (RSeq, SSeq) that occurs twice in packed,
// where each entry is RSeq<<32 | SSeq. It sorts packed in place.
func uniquePairs(packed []uint64) error {
	slices.Sort(packed)
	for i := 1; i < len(packed); i++ {
		if packed[i] == packed[i-1] {
			return fmt.Errorf("pair (%d,%d) delivered twice", packed[i]>>32, packed[i]&0xffffffff)
		}
	}
	return nil
}
