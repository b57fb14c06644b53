"""Internal module imported by its sibling."""
