package experiments

// CatalogEntry names one experiment id accepted by cmd/experiments -only,
// with a one-line description for -list.
type CatalogEntry struct {
	ID          string
	Description string
}

// Catalog enumerates every figure/table id the runner knows, in the
// order the full suite prints them.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{"table1", "workload operation mix of the emulated auction site"},
		{"table2", "fault kinds vs detection/recovery outcome"},
		{"table3", "recovery time: microreboot vs JVM restart vs node reboot"},
		{"figure1", "failed user actions during fault + recovery, by recovery kind"},
		{"figure2", "goodput timeline around a fault, microreboot vs restart"},
		{"figure3", "cluster goodput under rolling faults, with/without microreboots"},
		{"figure4", "failover + microreboot vs failover + restart"},
		{"table4", "requests over 8 s during failover (printed with figure4)"},
		{"table5", "disk-backed vs SSM session state under recovery"},
		{"table6", "fault-model coverage summary"},
		{"figure5", "recovery cost vs cluster size; amortized engineering cost"},
		{"figure6", "proactive rolling rejuvenation vs reactive recovery"},
		{"ablation", "extension: sentinel-to-crash detection delay sweep"},
		// brickcrash through fleet are defined by scenarios/*.toml specs
		// (internal/scenario.Figures).
		{"brickcrash", "extension: SSM brick crash under load, zero lost sessions"},
		{"elastic", "extension: elastic ring shard add/remove under load"},
		{"autoscale", "extension: control-plane autoscaler resizes the ring under a surge"},
		{"brickslow", "extension: fail-stutter brick with/without slow-replica routing"},
		{"fleet", "extension: shedding + least-loaded routing vs static round-robin"},
		{"section61", "section 6.1 cost/benefit arithmetic from measured results"},
	}
}
