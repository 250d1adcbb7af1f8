package netsim

// EnergyModel assigns per-slot radio costs in millijoules, the TSCH energy
// accounting used to estimate field-device battery life. The interesting
// term only a simulator can produce is idle listening: a receiver wakes for
// its guard window even when the sender has nothing to send (its packet was
// dropped upstream or already delivered), which static duty-cycle analysis
// cannot see.
type EnergyModel struct {
	// TxFrameMJ is a transmitting slot: DATA transmission plus ACK
	// reception.
	TxFrameMJ float64
	// RxFrameMJ is a receiving slot: guard listen, DATA reception, ACK
	// transmission.
	RxFrameMJ float64
	// IdleListenMJ is a receiving slot where no frame arrives: the guard
	// window is spent listening before the radio gives up.
	IdleListenMJ float64
}

// DefaultEnergyModel returns CC2420-class costs at 3 V: a 50-byte DATA
// frame takes ≈1.6 ms at 17.4 mA plus the ACK exchange; an idle guard
// window listens ≈2.2 ms at 18.8 mA.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		TxFrameMJ:    0.12,
		RxFrameMJ:    0.16,
		IdleListenMJ: 0.12,
	}
}

// chargeSlot accounts one scheduled transmission opportunity on the link
// from→to: fired exchanges cost both endpoints; unfired ones cost the
// receiver an idle listen (the sender checks its queue, finds nothing
// pending for this cell, and keeps the radio off).
func (s *simulator) chargeSlot(from, to int, fired bool) {
	if s.energy == nil {
		return
	}
	if fired {
		s.res.EnergyMJ[from] += s.energy.TxFrameMJ
		s.res.EnergyMJ[to] += s.energy.RxFrameMJ
		return
	}
	s.res.EnergyMJ[to] += s.energy.IdleListenMJ
}

// LifetimeYears estimates how long a battery of the given capacity (in
// joules) sustains a node consuming energyMJPerFrame millijoules per
// slotframe of slotframeSlots 10 ms slots. A pair of AA cells holds roughly
// 20 kJ.
func LifetimeYears(energyMJPerFrame float64, slotframeSlots int, batteryJ float64) float64 {
	if energyMJPerFrame <= 0 || slotframeSlots <= 0 || batteryJ <= 0 {
		return 0
	}
	frameSeconds := float64(slotframeSlots) * 0.01
	wattsAvg := energyMJPerFrame / 1000 / frameSeconds
	seconds := batteryJ / wattsAvg
	return seconds / (365.25 * 24 * 3600)
}
