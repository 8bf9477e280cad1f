package sched

// Work reports the cycles the last Run visited and the ready entries it
// examined.
func (ls *ListScheduler) Work() (visits, examined int) { return ls.visits, ls.examined }
