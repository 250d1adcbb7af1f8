package scheduler

// PlanPoint exposes the Fig. 6 flow-set builder to the external test
// package, where the paper-literal reference runs.
var PlanPoint = planPoint
