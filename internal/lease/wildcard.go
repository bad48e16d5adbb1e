package lease

// Wildcard leases implement §4.4's "simple, albeit somewhat extreme,
// workaround" for transactions that keep changing their data access pattern
// across re-executions: a lease on the whole set of conflict classes. A
// wildcard request conflicts with every other request; it is enabled only
// when every older request has been released, and while it is enabled no
// other request can be. The replication manager escalates to a wildcard
// after repeated re-executions fail to stabilize a transaction's data-set,
// which deterministically bounds its aborts at the price of a temporary
// bridling of concurrency.

// GetLeaseEverything acquires a wildcard lease, optionally releasing a
// previously held request atomically in the total order (the §4.4
// piggyback). It blocks until the wildcard is enabled: this replica then has
// exclusive commit rights cluster-wide.
//
// Live wildcards are kept apart from the class queues, oldest first in
// Manager.wild, each counting the older live requests still ahead of it: a
// table without one (the common case) pays a length check per enablement test.
func (m *Manager) GetLeaseEverything(old RequestID) (RequestID, error) {
	return m.acquire(&Request{Wildcard: true}, old, false)
}
