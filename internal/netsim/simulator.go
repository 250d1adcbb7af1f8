package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"wsan/internal/faults"
	"wsan/internal/flow"
	"wsan/internal/radio"
	"wsan/internal/schedule"
	"wsan/internal/topology"
)

// txRef is one schedule entry with the indexes the slot loop needs,
// precomputed once per run so that no slot looks anything up in a map.
type txRef struct {
	tx schedule.Tx
	// reuse records whether the schedule assigns this transmission a cell
	// shared with others — the condition label the detection policy uses.
	reuse bool
	// last records whether tx.Attempt is the highest attempt the schedule
	// holds for its (flow, hop): the drop rule reads the retry depth from the
	// schedule itself, so variable per-hop budgets (reliability-target
	// scheduling) and the scheduler's uniform retry depth follow one code
	// path; the simulator has no retransmission setting of its own.
	last bool
	// pkt indexes simulator.packets, or is -1 when the transmission can
	// never fire: its flow is not in Config.Flows or its instance is not
	// released within the hyperperiod.
	pkt int
	// link indexes simulator.links.
	link int
	// f is the transmission's flow (nil when pkt is -1).
	f *flow.Flow
}

// packetState tracks one packet (one flow instance release) through its
// route within the current hyperperiod execution.
type packetState struct {
	pos       int  // next hop index whose receiver lacks the packet
	ackOK     bool // whether the last completed hop's ACK reached the sender
	dropped   bool
	delivered bool
}

// condAcc accumulates attempts/successes for one condition.
type condAcc struct{ att, succ int }

const (
	condReuse = 0
	condCF    = 1
)

// simFlow is one distinct flow ID of Config.Flows with its packets' place
// in simulator.packets. A repeated ID keeps the last flow given for it.
type simFlow struct {
	f         *flow.Flow
	pkt       int // index of instance 0's packet
	instances int // releases per hyperperiod
}

type simulator struct {
	cfg Config
	// rng is the run's private random stream, created by RunCtx from
	// Config.Seed and confined to that call: a simulator is never shared
	// across goroutines, so concurrent Run/RunCtx calls (the parallel
	// Monte-Carlo trials in internal/experiment) each draw from their own
	// forked stream and stay bit-identical to sequential execution. See
	// TestConcurrentRunsAreDeterministic for the -race proof.
	rng   *rand.Rand
	env   *radio.Env
	res   *Result
	flows []simFlow

	bySlot [][]txRef

	// interferer state, precomputed interferer→node powers (linear mW) and
	// channel bitmasks; extra is the run's external-interference function
	// (nil without interferers or faults).
	interfOn []bool
	interfMW [][]float64
	interfCh []uint32
	extra    radio.InterferenceFunc

	// overlay is the fault-scenario state machine (never nil; empty for a
	// run without faults). haveFaults gates the per-slot overlay work so
	// fault-free runs pay only a boolean test.
	overlay    *faults.Overlay
	haveFaults bool

	// links is the deterministic list of distinct scheduled links, used for
	// neighbor-discovery probing and as the first index of wins.
	links []flow.Link
	// wins[link*numWins+window][cond] accumulates per-window outcomes (nil
	// unless EpochSlots > 0).
	wins    [][2]condAcc
	numWins int

	// packets holds every flow instance's state for the current
	// hyperperiod, flow by flow (see simFlow.pkt).
	packets []packetState

	// Per-slot scratch, sized by buildSlotIndex to the fullest slot so the
	// slot loop never grows it.
	fires  []firing
	data   []radio.Transmission
	acks   []radio.Transmission
	ackIdx []int
	dataOK []bool
	ackRes []bool
	ackOK  []bool
	probe  [1]radio.Transmission

	trace  *tracer
	energy *EnergyModel

	// collect gates the observability accumulation; mets holds the run's
	// local counters until flushMetrics pushes them to cfg.Metrics.
	collect bool
	mets    simCounters
}

// simCounters accumulates one run's observability counters. All increments
// are plain integer operations guarded by simulator.collect, so a run
// without a metrics sink pays only predictable branches.
type simCounters struct {
	fired       int64 // DATA frames put on the air
	dataFailed  int64 // DATA frames the receiver could not decode
	cochannel   int64 // DATA frames facing ≥1 concurrent same-channel DATA
	collisions  int64 // co-channel DATA frames lost (reuse-induced collisions)
	captureWins int64 // co-channel DATA frames decoded anyway (capture effect)
	interfHits  int64 // DATA frames fired while an external interferer was
	// active on their channel at the receiver
	retx    int64 // scheduled retransmissions (attempt > 0) that fired
	dupRetx int64 // duplicate retries caused by lost ACKs
	ackFail int64 // decoded DATA frames whose ACK was lost
	probes  int64 // neighbor-discovery probe exchanges

	retxByCh [topology.NumChannels]int64 // retransmissions per physical channel
}

// flushMetrics pushes the accumulated counters to the configured sink under
// the "netsim." prefix. Per-channel retransmission counters use the IEEE
// channel number ("netsim.retransmissions.ch11" … "ch26").
func (s *simulator) flushMetrics() {
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	c := &s.mets
	m.Count("netsim.runs", 1)
	m.Count("netsim.tx.fired", c.fired)
	m.Count("netsim.tx.failed", c.dataFailed)
	m.Count("netsim.tx.cochannel", c.cochannel)
	m.Count("netsim.collisions", c.collisions)
	m.Count("netsim.capture_wins", c.captureWins)
	m.Count("netsim.interference_hits", c.interfHits)
	m.Count("netsim.retransmissions", c.retx)
	m.Count("netsim.dup_retransmissions", c.dupRetx)
	m.Count("netsim.ack_failed", c.ackFail)
	m.Count("netsim.probes", c.probes)
	for ch, n := range c.retxByCh {
		if n > 0 {
			m.Count(fmt.Sprintf("netsim.retransmissions.ch%d", topology.IEEEChannel(ch)), n)
		}
	}
	var released, delivered int64
	for _, n := range s.res.Released {
		released += int64(n)
	}
	for _, n := range s.res.Delivered {
		delivered += int64(n)
	}
	m.Count("netsim.packets.released", released)
	m.Count("netsim.packets.delivered", delivered)
	m.Count("netsim.packets.lost", released-delivered)
	if s.cfg.Faults != nil {
		fc := s.res.FaultEvents
		m.Count("faults.events_applied", int64(fc.Total()))
		m.Count("faults.node_crashes", int64(fc.NodeCrashes))
		m.Count("faults.node_recoveries", int64(fc.NodeRecoveries))
		m.Count("faults.link_blackouts", int64(fc.LinkBlackouts))
		m.Count("faults.link_restores", int64(fc.LinkRestores))
		m.Count("faults.interference_starts", int64(fc.InterferenceStarts))
		m.Count("faults.interference_stops", int64(fc.InterferenceStops))
		m.Count("faults.drift_steps", int64(fc.DriftSteps))
	}
}

// buildSlotIndex flattens the schedule into a per-slot transmission list,
// labels each transmission with its reuse condition and precomputes its
// packet, link and last-attempt indexes.
func (s *simulator) buildSlotIndex() {
	sched := s.cfg.Schedule
	hyper := sched.NumSlots()
	byID := make(map[int]int, len(s.cfg.Flows))
	for _, f := range s.cfg.Flows {
		if i, ok := byID[f.ID]; ok {
			s.flows[i].f = f
			continue
		}
		byID[f.ID] = len(s.flows)
		s.flows = append(s.flows, simFlow{f: f})
	}
	npkt := 0
	for i := range s.flows {
		sf := &s.flows[i]
		sf.pkt, sf.instances = npkt, hyper/sf.f.Period
		npkt += sf.instances
	}
	s.packets = make([]packetState, npkt)

	lastAttempt := make(map[[2]int]int)
	linkIdx := make(map[flow.Link]int)
	for _, tx := range sched.Txs() {
		if k := [2]int{tx.FlowID, tx.Hop}; tx.Attempt > lastAttempt[k] {
			lastAttempt[k] = tx.Attempt
		}
		if _, ok := linkIdx[tx.Link]; !ok {
			linkIdx[tx.Link] = 0
			s.links = append(s.links, tx.Link)
		}
	}
	sort.Slice(s.links, func(i, j int) bool {
		if s.links[i].From != s.links[j].From {
			return s.links[i].From < s.links[j].From
		}
		return s.links[i].To < s.links[j].To
	})
	for i, l := range s.links {
		linkIdx[l] = i
	}

	s.bySlot = make([][]txRef, hyper)
	maxRefs := 0
	for slot := 0; slot < hyper; slot++ {
		for off := 0; off < sched.NumOffsets(); off++ {
			cell := sched.Cell(slot, off)
			for _, tx := range cell {
				ref := txRef{
					tx:    tx,
					reuse: len(cell) >= 2,
					last:  tx.Attempt == lastAttempt[[2]int{tx.FlowID, tx.Hop}],
					pkt:   -1,
					link:  linkIdx[tx.Link],
				}
				if i, ok := byID[tx.FlowID]; ok {
					if sf := s.flows[i]; tx.Instance >= 0 && tx.Instance < sf.instances {
						ref.pkt, ref.f = sf.pkt+tx.Instance, sf.f
					}
				}
				s.bySlot[slot] = append(s.bySlot[slot], ref)
			}
		}
		maxRefs = max(maxRefs, len(s.bySlot[slot]))
	}
	s.fires = make([]firing, 0, maxRefs)
	s.data = make([]radio.Transmission, 0, maxRefs)
	s.acks = make([]radio.Transmission, 0, maxRefs)
	s.ackIdx = make([]int, 0, maxRefs)
	s.dataOK = make([]bool, maxRefs)
	s.ackRes = make([]bool, maxRefs)
	s.ackOK = make([]bool, maxRefs)

	if s.cfg.EpochSlots > 0 {
		s.numWins = (hyper*s.cfg.Hyperperiods-1)/s.cfg.SampleWindowSlots + 1
		s.wins = make([][2]condAcc, len(s.links)*s.numWins)
	}
}

// initInterferers samples initial ON/OFF states, precomputes the power
// (linear mW) every interferer delivers to every node and its channel mask,
// and builds the run's external-interference function.
func (s *simulator) initInterferers() {
	nodes := s.cfg.Testbed.Nodes
	s.interfMW = make([][]float64, len(s.cfg.Interferers))
	s.interfCh = make([]uint32, len(s.cfg.Interferers))
	for i, intf := range s.cfg.Interferers {
		s.interfOn[i] = s.rng.Float64() < intf.DutyCycle
		mw := make([]float64, len(nodes))
		for j, nd := range nodes {
			dx, dy, dz := nd.X-intf.X, nd.Y-intf.Y, nd.Z-intf.Z
			dist := math.Sqrt(dx*dx + dy*dy + dz*dz)
			floors := nd.Floor - intf.Floor
			if floors < 0 {
				floors = -floors
			}
			mw[j] = radio.DBmToMilliwatts(intf.PowerDBm - s.cfg.PathLoss.LossDB(dist, floors))
		}
		s.interfMW[i] = mw
		for _, c := range intf.Channels {
			if c >= 0 && c < topology.NumChannels {
				s.interfCh[i] |= 1 << uint(c)
			}
		}
	}
	s.extra = s.externalInterference()
}

// stepInterferers advances each interferer's two-state Markov burst process
// by one slot.
func (s *simulator) stepInterferers() {
	for i, intf := range s.cfg.Interferers {
		burst := intf.MeanBurstSlots
		if burst < 1 {
			burst = 1
		}
		if s.interfOn[i] {
			if s.rng.Float64() < 1/burst {
				s.interfOn[i] = false
			}
			continue
		}
		duty := intf.DutyCycle
		var pOn float64
		switch {
		case duty >= 1:
			pOn = 1
		case duty <= 0:
			pOn = 0
		default:
			pOn = duty / ((1 - duty) * burst)
			if pOn > 1 {
				pOn = 1
			}
		}
		if s.rng.Float64() < pOn {
			s.interfOn[i] = true
		}
	}
}

// externalInterference returns the cumulative active interferer power (mW)
// at a receiver on a physical channel, or nil if there are no interferers and
// no fault scenario that could inject bursts.
func (s *simulator) externalInterference() radio.InterferenceFunc {
	if len(s.cfg.Interferers) == 0 && !s.haveFaults {
		return nil
	}
	return func(rx, ch int) float64 {
		total := 0.0
		for i, mw := range s.interfMW {
			if s.interfOn[i] && s.interfCh[i]&(1<<uint(ch)) != 0 {
				total += mw[rx]
			}
		}
		if s.haveFaults {
			total += s.overlay.InterferenceMW(ch)
		}
		return total
	}
}

// firing is one transmission that actually goes on the air in a slot.
type firing struct {
	ref *txRef
	dup bool // duplicate retry caused by a lost ACK
}

// account attributes one slot's outcomes to the observability counters:
// co-channel exposure (and its split into collisions versus capture wins),
// external-interference exposure, retransmissions per channel, and ACK
// losses. Called only when a metrics sink is configured.
func (s *simulator) account(fires []firing, data []radio.Transmission, dataOK, ackOK []bool) {
	c := &s.mets
	for i, f := range fires {
		c.fired++
		if f.dup {
			c.dupRetx++
		}
		if f.ref.tx.Attempt > 0 {
			c.retx++
			if ch := data[i].Channel; ch >= 0 && ch < len(c.retxByCh) {
				c.retxByCh[ch]++
			}
		}
		cochannel := false
		for j := range data {
			if j != i && data[j].Channel == data[i].Channel {
				cochannel = true
				break
			}
		}
		if cochannel {
			c.cochannel++
			if dataOK[i] {
				c.captureWins++
			} else {
				c.collisions++
			}
		}
		if s.extra != nil && s.extra(data[i].Receiver, data[i].Channel) > 0 {
			c.interfHits++
		}
		if !dataOK[i] {
			c.dataFailed++
		} else if !ackOK[i] {
			c.ackFail++
		}
	}
}

// runHyperperiod executes one pass over the slotframe.
func (s *simulator) runHyperperiod(rep int) {
	hyper := s.cfg.Schedule.NumSlots()
	clear(s.packets)
	for _, sf := range s.flows {
		s.res.Released[sf.f.ID] += sf.instances
	}
	for slot := 0; slot < hyper; slot++ {
		asn := rep*hyper + slot
		if s.haveFaults {
			// The scenario clock is the run's ASN shifted by FaultOffsetSlots,
			// so consecutive runs (manage-loop iterations) can walk one
			// continuous fault timeline.
			s.overlay.Advance(s.cfg.FaultOffsetSlots + asn)
		}
		s.stepInterferers()
		if s.cfg.ProbeEverySlots > 0 && asn%s.cfg.ProbeEverySlots == 0 {
			s.runProbes(asn)
		}
		refs := s.bySlot[slot]
		if len(refs) == 0 {
			continue
		}
		// Decide which transmissions fire.
		fires := s.fires[:0]
		for k := range refs {
			ref := &refs[k]
			willFire := false
			// A crashed sender is silent: nothing goes on the air, so the
			// packet stalls at this hop (a crashed receiver instead fails the
			// frame through the -Inf gain path in faultedGain).
			senderUp := !s.haveFaults || !s.overlay.NodeDown(ref.tx.Link.From)
			if ref.pkt >= 0 && senderUp {
				switch st := &s.packets[ref.pkt]; {
				case st.dropped: // a dropped packet never fires again
				case !st.delivered && ref.tx.Hop == st.pos:
					fires = append(fires, firing{ref: ref})
					willFire = true
				case ref.tx.Attempt > 0 && ref.tx.Hop == st.pos-1 && !st.ackOK:
					// The previous hop's DATA got through but its ACK did
					// not: the sender does not know (even if this was the
					// final hop and the packet is already delivered), so the
					// scheduled retry fires as a duplicate.
					fires = append(fires, firing{ref: ref, dup: true})
					willFire = true
				}
			}
			s.chargeSlot(ref.tx.Link.From, ref.tx.Link.To, willFire)
		}
		if len(fires) == 0 {
			continue
		}
		// Evaluate all concurrent DATA frames together.
		data := s.data[:0]
		for _, f := range fires {
			data = append(data, radio.Transmission{
				Sender:   f.ref.tx.Link.From,
				Receiver: f.ref.tx.Link.To,
				Channel:  s.physChannel(asn, f.ref.tx.Offset),
				Bits:     radio.DefaultPacketBits,
			})
		}
		dataOK := s.env.Evaluate(s.rng, data, s.extra, s.dataOK)
		// Evaluate the ACKs of the successful DATA frames together.
		acks, ackIdx := s.acks[:0], s.ackIdx[:0]
		for i, ok := range dataOK {
			if ok {
				acks = append(acks, radio.Transmission{
					Sender:   data[i].Receiver,
					Receiver: data[i].Sender,
					Channel:  data[i].Channel,
					Bits:     radio.AckBits,
				})
				ackIdx = append(ackIdx, i)
			}
		}
		ackOK := s.ackOK[:len(fires)]
		clear(ackOK)
		if len(acks) > 0 {
			res := s.env.Evaluate(s.rng, acks, s.extra, s.ackRes)
			for k, i := range ackIdx {
				ackOK[i] = res[k]
			}
		}
		if s.collect {
			s.account(fires, data, dataOK, ackOK)
		}
		// Record statistics and update packet states.
		for i, f := range fires {
			ref := f.ref
			s.res.ChannelAttempts[data[i].Channel]++
			if !dataOK[i] {
				s.res.ChannelFailures[data[i].Channel]++
			}
			s.record(asn, ref.link, ref.reuse, dataOK[i])
			if s.trace != nil {
				s.trace.emit(TraceEvent{
					ASN:       asn,
					Slot:      slot,
					Offset:    ref.tx.Offset,
					Channel:   data[i].Channel,
					FlowID:    ref.tx.FlowID,
					Hop:       ref.tx.Hop,
					Attempt:   ref.tx.Attempt,
					From:      ref.tx.Link.From,
					To:        ref.tx.Link.To,
					Reuse:     ref.reuse,
					Duplicate: f.dup,
					DataOK:    dataOK[i],
					AckOK:     ackOK[i],
				})
			}
			st := &s.packets[ref.pkt]
			if f.dup {
				// Receiver already had the packet; the retry only refreshes
				// the ACK state.
				st.ackOK = st.ackOK || ackOK[i]
				continue
			}
			if dataOK[i] {
				st.pos++
				st.ackOK = ackOK[i]
				if st.pos == len(ref.f.Route) {
					st.delivered = true
					s.res.Delivered[ref.tx.FlowID]++
					if s.cfg.TrackLatency {
						release := ref.f.Release(ref.tx.Instance)
						s.res.Latencies[ref.tx.FlowID] = append(
							s.res.Latencies[ref.tx.FlowID], slot-release+1)
					}
				}
			} else if ref.last {
				// The hop's last scheduled attempt failed — read from the
				// schedule, so k>1 retry budgets drop exactly after their
				// final slot, not after the uniform policy's second.
				st.dropped = true
			}
		}
	}
}

// runProbes exchanges one isolated neighbor-discovery probe per scheduled
// link and records the outcomes as contention-free samples. Probes hop
// channels with the ASN like regular traffic.
func (s *simulator) runProbes(asn int) {
	if s.wins == nil {
		return
	}
	ch := s.cfg.Channels[asn%len(s.cfg.Channels)]
	for li, link := range s.links {
		if s.haveFaults && s.overlay.NodeDown(link.From) {
			continue // a crashed node sends no probes
		}
		s.probe[0] = radio.Transmission{
			Sender:   link.From,
			Receiver: link.To,
			Channel:  ch,
			Bits:     radio.DefaultPacketBits,
		}
		ok := s.env.Evaluate(s.rng, s.probe[:], s.extra, s.dataOK)[0]
		if s.collect {
			s.mets.probes++
		}
		s.res.ChannelAttempts[ch]++
		if !ok {
			s.res.ChannelFailures[ch]++
		}
		s.record(asn, li, false, ok)
	}
}

// physChannel applies the TSCH hopping formula.
func (s *simulator) physChannel(asn, offset int) int {
	m := len(s.cfg.Channels)
	return s.cfg.Channels[(asn+offset)%m]
}

// record accumulates a fired transmission's outcome into its (link, window,
// condition) bucket.
func (s *simulator) record(asn, link int, reuse, ok bool) {
	if s.wins == nil {
		return
	}
	acc := &s.wins[link*s.numWins+asn/s.cfg.SampleWindowSlots]
	cond := condCF
	if reuse {
		cond = condReuse
	}
	acc[cond].att++
	if ok {
		acc[cond].succ++
	}
}

// finishStats converts window accumulators into per-epoch statistics with
// deterministic sample ordering: each (epoch, condition) lists its windows'
// PRR samples in window order. All samples share one backing array, carved
// with capped slices, so the allocation count does not grow with the run.
func (s *simulator) finishStats() {
	if s.wins == nil {
		return
	}
	totalSlots := s.cfg.Schedule.NumSlots() * s.cfg.Hyperperiods
	numEpochs := (totalSlots + s.cfg.EpochSlots - 1) / s.cfg.EpochSlots
	n := 0
	for _, acc := range s.wins {
		for cond := range acc {
			if acc[cond].att > 0 {
				n++
			}
		}
	}
	samples := make([]float64, 0, n)
	for li, link := range s.links {
		wins := s.wins[li*s.numWins : (li+1)*s.numWins]
		var epochs []EpochStats
		// Samples go in condition by condition, each in window order, and
		// windows map to epochs monotonically, so each (epoch, condition)
		// run of samples is contiguous in the backing array.
		for cond := 0; cond < 2; cond++ {
			for w, acc := range wins {
				a := acc[cond]
				if a.att == 0 {
					continue
				}
				if epochs == nil {
					epochs = make([]EpochStats, numEpochs)
				}
				ep := w * s.cfg.SampleWindowSlots / s.cfg.EpochSlots
				if ep >= numEpochs {
					ep = numEpochs - 1
				}
				cs := &epochs[ep].CF
				if cond == condReuse {
					cs = &epochs[ep].Reuse
				}
				cs.Attempts += a.att
				cs.Successes += a.succ
				samples = append(samples, float64(a.succ)/float64(a.att))
				end := len(samples)
				cs.Samples = samples[end-len(cs.Samples)-1 : end : end]
			}
		}
		if epochs != nil {
			s.res.LinkEpochs[link] = epochs
		}
	}
}
