"""Security analyses: threat model, dead times, probabilities, attacks."""
