package cc

import (
	"sort"
	"testing"
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/sim"
)

// inflightModel is the map-based reference the in-flight ring is fuzzed
// against: it tracks every sent packet by seq and replays the sender's
// RTT estimator to predict which packets each loss sweep declares lost.
type inflightModel struct {
	live                  map[uint64]modelPkt
	acked, lost           map[uint64]bool
	inflightBytes         int
	sentPkts, sentBytes   uint64
	ackedPkts, ackedBytes uint64
	lostPkts              uint64
	srtt, rttvar          time.Duration
}

type modelPkt struct {
	bytes  int
	sentAt time.Duration
}

func (m *inflightModel) send(seq uint64, bytes int, at time.Duration) {
	m.live[seq] = modelPkt{bytes: bytes, sentAt: at}
	m.inflightBytes += bytes
	m.sentPkts++
	m.sentBytes += uint64(bytes)
}

// liveSeqs returns the in-flight seqs in send order.
func (m *inflightModel) liveSeqs() []uint64 {
	seqs := make([]uint64, 0, len(m.live))
	for seq := range m.live {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// ack returns the sample the sender must hand its controller for an ACK
// of seq at now, or false when the ACK must be ignored.
func (m *inflightModel) ack(seq uint64, now time.Duration) (AckSample, bool) {
	p, ok := m.live[seq]
	if !ok {
		return AckSample{}, false
	}
	delete(m.live, seq)
	m.acked[seq] = true
	m.inflightBytes -= p.bytes
	m.ackedPkts++
	m.ackedBytes += uint64(p.bytes)
	rtt := now - p.sentAt
	if m.srtt == 0 {
		m.srtt, m.rttvar = rtt, rtt/2
	} else {
		diff := m.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		m.rttvar = (3*m.rttvar + diff) / 4
		m.srtt = (7*m.srtt + rtt) / 8
	}
	return AckSample{Seq: seq, AckedBytes: p.bytes, RTT: rtt, InflightBytes: m.inflightBytes}, true
}

// sweep returns the losses a sweep at now declares.
func (m *inflightModel) sweep(now time.Duration) []LossSample {
	if len(m.live) == 0 || m.srtt == 0 {
		return nil
	}
	threshold := m.srtt + max(4*m.rttvar, 10*time.Millisecond) + harqReorderAllowance
	var out []LossSample
	for _, seq := range m.liveSeqs() {
		p := m.live[seq]
		if now-p.sentAt <= threshold {
			break
		}
		delete(m.live, seq)
		m.lost[seq] = true
		m.inflightBytes -= p.bytes
		m.lostPkts++
		out = append(out, LossSample{Now: now, Seq: seq, Bytes: p.bytes, InflightBytes: m.inflightBytes})
	}
	return out
}

// pick returns the idx'th element (mod length) of a seq set in
// ascending order.
func pick(set map[uint64]bool, idx int) (uint64, bool) {
	if len(set) == 0 {
		return 0, false
	}
	seqs := make([]uint64, 0, len(set))
	for seq := range set {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs[idx%len(seqs)], true
}

// FuzzSenderInflight runs random sends, in-order, reordered, duplicate,
// post-loss and stray ACKs, ACK bursts that leave long dead prefixes,
// and clock advances that fire loss sweeps through a Sender, and checks
// it against inflightModel after every operation: InflightBytes, the
// sent, acked and lost counters, and the seq order and contents of the
// controller's OnAck and OnLoss calls. Each operation is two input bytes,
// a kind and an argument; inputs are cut at maxOps operations so the
// model's sorting stays cheap.
func FuzzSenderInflight(f *testing.F) {
	const maxOps = 512
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 2*maxOps)]
		eng := sim.New(1)
		pool := netsim.PoolOf(eng)
		ctrl := &fakeCtrl{}
		type sentLog struct {
			seq   uint64
			bytes int
			at    time.Duration
		}
		var log []sentLog
		out := netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
			log = append(log, sentLog{p.Seq, p.Size, p.SentAt})
			pool.Release(p)
		})
		s := NewSender(eng, 1, out, ctrl)
		sizes := []int{netsim.MSS, 100, 700, 1}
		nsrc := 0
		s.Source = func(time.Duration) *netsim.Packet {
			p := pool.Get()
			p.Size = sizes[nsrc%len(sizes)]
			nsrc++
			return p
		}
		m := &inflightModel{live: map[uint64]modelPkt{}, acked: map[uint64]bool{}, lost: map[uint64]bool{}}
		var wantAcks []AckSample
		var wantLosses []LossSample
		// logged feeds the model every send logged at or before t.
		logged := 0
		feed := func(t time.Duration) {
			for ; logged < len(log) && log[logged].at <= t; logged++ {
				m.send(log[logged].seq, log[logged].bytes, log[logged].at)
			}
		}
		ack := func(seq uint64) {
			now := eng.Now()
			if a, ok := m.ack(seq, now); ok {
				wantAcks = append(wantAcks, a)
			}
			p := pool.Get()
			p.IsAck, p.Ack.AckSeq, p.Ack.ReceivedAt = true, seq, now
			s.HandlePacket(now, p)
			feed(now)
		}
		// ctrl.cwnd stays 0 between operations, so the sender sends on
		// its own only when nothing is in flight.
		s.Start()
		feed(0)
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 8 {
			case 0: // send 1..8 packets
				for k := arg%8 + 1; k > 0; k-- {
					ctrl.cwnd = s.InflightBytes() + netsim.MSS
					s.Pump()
				}
				ctrl.cwnd = 0
				feed(eng.Now())
			case 1: // in-order ACK
				if seqs := m.liveSeqs(); len(seqs) > 0 {
					ack(seqs[0])
				}
			case 2: // reordered ACK
				if seqs := m.liveSeqs(); len(seqs) > 0 {
					ack(seqs[arg%len(seqs)])
				}
			case 3: // duplicate ACK
				if seq, ok := pick(m.acked, arg); ok {
					ack(seq)
				}
			case 4: // ACK after loss
				if seq, ok := pick(m.lost, arg); ok {
					ack(seq)
				}
			case 5: // raw ACK: any seq from 0 to about twice the sent count
				ack(uint64(arg) * m.sentPkts / 128)
			case 6: // advance the clock; every 5 ms tick sweeps
				from, to := eng.Now(), eng.Now()+time.Duration(arg%40+1)*time.Millisecond
				eng.RunUntil(to)
				for tick := (from/lossSweepInterval + 1) * lossSweepInterval; tick <= to; tick += lossSweepInterval {
					feed(tick - 1)
					wantLosses = append(wantLosses, m.sweep(tick)...)
					feed(tick)
				}
				feed(to)
			case 7: // ACK burst: the oldest arg in-flight packets in order
				seqs := m.liveSeqs()
				for _, seq := range seqs[:min(arg, len(seqs))] {
					ack(seq)
				}
			}
			if logged != len(log) {
				t.Fatalf("op %d: %d sends not yet fed to the model", i/2, len(log)-logged)
			}
			checkInflight(t, i/2, s, ctrl, m, wantAcks, wantLosses)
			// Checked calls are dropped, so each check sees only the
			// operation's own.
			ctrl.acks, ctrl.losses = ctrl.acks[:0], ctrl.losses[:0]
			wantAcks, wantLosses = wantAcks[:0], wantLosses[:0]
		}
	})
}

func checkInflight(t *testing.T, op int, s *Sender, ctrl *fakeCtrl, m *inflightModel, acks []AckSample, losses []LossSample) {
	t.Helper()
	if got := s.InflightBytes(); got != m.inflightBytes {
		t.Fatalf("op %d: InflightBytes = %d, model %d", op, got, m.inflightBytes)
	}
	if s.SentPackets != m.sentPkts || s.SentBytes != m.sentBytes || uint64(ctrl.sent) != m.sentPkts {
		t.Fatalf("op %d: sent %d pkts / %d B (OnSent %d), model %d / %d",
			op, s.SentPackets, s.SentBytes, ctrl.sent, m.sentPkts, m.sentBytes)
	}
	if s.AckedPackets != m.ackedPkts || s.AckedBytes != m.ackedBytes {
		t.Fatalf("op %d: acked %d pkts / %d B, model %d / %d", op, s.AckedPackets, s.AckedBytes, m.ackedPkts, m.ackedBytes)
	}
	if s.LostPackets != m.lostPkts {
		t.Fatalf("op %d: lost %d pkts, model %d", op, s.LostPackets, m.lostPkts)
	}
	if len(ctrl.acks) != len(acks) {
		t.Fatalf("op %d: %d OnAck calls, model %d", op, len(ctrl.acks), len(acks))
	}
	for i, want := range acks {
		got := ctrl.acks[i]
		if got.Seq != want.Seq || got.AckedBytes != want.AckedBytes || got.RTT != want.RTT || got.InflightBytes != want.InflightBytes {
			t.Fatalf("op %d: OnAck #%d = seq %d, %d B, rtt %v, inflight %d; model seq %d, %d B, rtt %v, inflight %d",
				op, i, got.Seq, got.AckedBytes, got.RTT, got.InflightBytes, want.Seq, want.AckedBytes, want.RTT, want.InflightBytes)
		}
	}
	if len(ctrl.losses) != len(losses) {
		t.Fatalf("op %d: %d OnLoss calls, model %d", op, len(ctrl.losses), len(losses))
	}
	for i, want := range losses {
		if got := ctrl.losses[i]; got != want {
			t.Fatalf("op %d: OnLoss #%d = %+v, model %+v", op, i, got, want)
		}
	}
}
