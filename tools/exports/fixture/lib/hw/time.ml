include Fix_base.Time
